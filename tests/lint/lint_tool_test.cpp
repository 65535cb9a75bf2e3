// Fixture-driven end-to-end tests for updp2p-lint.
//
// Each case installs fixture files from tests/lint/fixtures/ into a fresh
// temporary tree at the path that puts them in (or out of) a rule's scope,
// runs the real binary with --root pointing at that tree, and asserts the
// exact `path:line: rule-id` diagnostics and the exit code. Every rule has
// a must-flag fixture and a near-miss fixture; the suppression syntax has
// valid, bare (reason-less) and unknown-rule cases.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/wait.h>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct RunOutput {
  int exit_code = -1;
  std::string text;  // stdout + stderr
};

class LintToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string pattern =
        (fs::temp_directory_path() / "updp2p_lint_XXXXXX").string();
    ASSERT_NE(::mkdtemp(pattern.data()), nullptr);
    root_ = pattern;
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(root_, ignored);
  }

  /// Copies fixtures/<fixture> to <root>/<dest> (creating directories).
  void install(const std::string& fixture, const std::string& dest) {
    const fs::path from = fs::path(UPDP2P_LINT_FIXTURES) / fixture;
    const fs::path to = root_ / dest;
    fs::create_directories(to.parent_path());
    fs::copy_file(from, to, fs::copy_options::overwrite_existing);
  }

  /// Writes literal content to <root>/<dest> (for baseline files).
  void write_file(const std::string& dest, const std::string& content) {
    const fs::path to = root_ / dest;
    fs::create_directories(to.parent_path());
    FILE* f = std::fopen(to.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
  }

  RunOutput run_lint(const std::string& extra_args = "") const {
    const std::string command = std::string("\"") + UPDP2P_LINT_PATH +
                                "\" --root \"" + root_.string() + "\" " +
                                extra_args + " 2>&1";
    FILE* pipe = ::popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    RunOutput out;
    std::array<char, 4096> buffer;
    std::size_t got = 0;
    while ((got = std::fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
      out.text.append(buffer.data(), got);
    }
    const int status = ::pclose(pipe);
    out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return out;
  }

  /// Asserts `dest:line: rule` appears in the output.
  static void expect_finding(const RunOutput& out, const std::string& dest,
                             int line, const std::string& rule) {
    const std::string needle =
        dest + ":" + std::to_string(line) + ": " + rule;
    EXPECT_NE(out.text.find(needle), std::string::npos)
        << "missing diagnostic '" << needle << "' in:\n"
        << out.text;
  }

  static void expect_clean(const RunOutput& out) {
    EXPECT_EQ(out.exit_code, 0) << out.text;
    EXPECT_NE(out.text.find("0 finding(s)"), std::string::npos) << out.text;
  }

  fs::path root_;
};

TEST_F(LintToolTest, DeterminismFlagsClocksAndEntropyInSim) {
  install("determinism_flagged.cpp", "src/sim/determinism_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/sim/determinism_flagged.cpp", 5, "determinism");
  expect_finding(out, "src/sim/determinism_flagged.cpp", 10, "determinism");
  expect_finding(out, "src/sim/determinism_flagged.cpp", 11, "determinism");
}

TEST_F(LintToolTest, DeterminismAllowsRealTimeInRuntime) {
  install("determinism_allowlisted.cpp",
          "src/runtime/determinism_allowlisted.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, DeterminismIgnoresCommentsStringsAndLookalikes) {
  install("determinism_near_miss.cpp", "src/sim/determinism_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, RngDisciplineFlagsRawEngineAndDistribution) {
  install("rng_flagged.cpp", "src/gossip/rng_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/gossip/rng_flagged.cpp", 5, "rng-discipline");
  expect_finding(out, "src/gossip/rng_flagged.cpp", 6, "rng-discipline");
  expect_finding(out, "src/gossip/rng_flagged.cpp", 11, "rng-discipline");
}

TEST_F(LintToolTest, RngDisciplineAllowsStreamRngAndRngOps) {
  install("rng_near_miss.cpp", "src/gossip/rng_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, RngDisciplineAllowsTheSanctionedHome) {
  install("rng_home.hpp", "src/common/rng.hpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, IterationOrderFlagsRangeForOverUnordered) {
  install("iteration_flagged.cpp", "src/sim/iteration_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/sim/iteration_flagged.cpp", 11, "iteration-order");
  expect_finding(out, "src/sim/iteration_flagged.cpp", 20, "iteration-order");
}

TEST_F(LintToolTest, IterationOrderAllowsOrderedAndLookupUse) {
  install("iteration_near_miss.cpp", "src/sim/iteration_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, IterationOrderSeesDeclarationsInCompanionHeader) {
  install("iteration_header.hpp", "src/gossip/iteration_header.hpp");
  install("iteration_header.cpp", "src/gossip/iteration_header.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/gossip/iteration_header.cpp", 9,
                 "iteration-order");
}

TEST_F(LintToolTest, WireTaintFlagsUnguardedWireResize) {
  install("wire_flagged.cpp", "src/net/wire_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/net/wire_flagged.cpp", 10, "wire-taint");
}

TEST_F(LintToolTest, WireTaintAllowsGuardedAndNonWireSizes) {
  install("wire_near_miss.cpp", "src/net/wire_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, WireTaintFlagsChunkLevelSizes) {
  install("wire_chunk_flagged.cpp", "src/gossip/codec.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/gossip/codec.cpp", 14, "wire-taint");
  expect_finding(out, "src/gossip/codec.cpp", 19, "wire-taint");
}

TEST_F(LintToolTest, WireTaintAcceptsChunkLevelGuards) {
  install("wire_chunk_near_miss.cpp", "src/gossip/codec.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, WireTaintFlagsProbeDerivedSizes) {
  install("wire_probe_flagged.cpp", "src/net/wire_probe_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/net/wire_probe_flagged.cpp", 11, "wire-taint");
  expect_finding(out, "src/net/wire_probe_flagged.cpp", 16, "wire-taint");
}

TEST_F(LintToolTest, WireTaintAcceptsGuardedProbesAndFrameConstants) {
  install("wire_probe_near_miss.cpp", "src/net/wire_probe_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, WireTaintFlagsStoreRecordSizes) {
  install("store_record_flagged.cpp", "src/store/wal_replay.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/store/wal_replay.cpp", 12, "wire-taint");
  expect_finding(out, "src/store/wal_replay.cpp", 17, "wire-taint");
}

TEST_F(LintToolTest, WireTaintAcceptsStoreCapsAndValidatedPrefixes) {
  install("store_record_near_miss.cpp", "src/store/wal_replay.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, WireTaintOnlyAppliesToDecodeSurface) {
  // The identical unguarded resizes are out of scope outside
  // codec/net/store.
  install("wire_flagged.cpp", "src/sim/wire_flagged.cpp");
  install("store_record_flagged.cpp", "src/sim/store_record_flagged.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, WireTaintFollowsTaintAcrossCalls) {
  // The helper reads the byte buffer; the caller only sees its return
  // value. The cross-file summary must carry the taint to the resize.
  install("wire_flow_flagged.cpp", "src/net/wire_flow_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/net/wire_flow_flagged.cpp", 21, "wire-taint");
}

TEST_F(LintToolTest, WireTaintAcceptsFarChecksAndValidatorHelpers) {
  install("wire_flow_near_miss.cpp", "src/net/wire_flow_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, ProbeTrustFlagsStateMutationFromProbeFields) {
  install("probe_trust_flagged.cpp", "src/net/probe_trust_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/net/probe_trust_flagged.cpp", 22, "probe-trust");
  expect_finding(out, "src/net/probe_trust_flagged.cpp", 23, "probe-trust");
}

TEST_F(LintToolTest, ProbeTrustAllowsBookkeepingAndDecodedPaths) {
  install("probe_trust_near_miss.cpp", "src/net/probe_trust_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, ShardGuardFlagsAccessWithoutShardOrLock) {
  install("shard_guard_flagged.cpp", "src/sim/shard_guard_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/sim/shard_guard_flagged.cpp", 16, "shard-guard");
  expect_finding(out, "src/sim/shard_guard_flagged.cpp", 21, "shard-guard");
  expect_finding(out, "src/sim/shard_guard_flagged.cpp", 22, "shard-guard");
}

TEST_F(LintToolTest, ShardGuardAcceptsShardParamLockHoldsAndCtor) {
  install("shard_guard_near_miss.cpp", "src/sim/shard_guard_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, SarifOutputIsSchemaShaped) {
  install("determinism_flagged.cpp", "src/sim/determinism_flagged.cpp");
  const RunOutput out = run_lint("--format sarif");
  EXPECT_EQ(out.exit_code, 1) << out.text;
  EXPECT_NE(out.text.find("sarif-2.1.0"), std::string::npos) << out.text;
  EXPECT_NE(out.text.find("\"version\": \"2.1.0\""), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("\"ruleId\": \"determinism\""), std::string::npos)
      << out.text;
  EXPECT_NE(out.text.find("\"startLine\": 5"), std::string::npos) << out.text;
  EXPECT_NE(out.text.find("\"uri\": \"src/sim/determinism_flagged.cpp\""),
            std::string::npos)
      << out.text;
}

TEST_F(LintToolTest, BaselineSuppressesKnownFindingsAndRejectsStale) {
  install("determinism_flagged.cpp", "src/sim/determinism_flagged.cpp");
  write_file("baseline.txt",
             "determinism src/sim/determinism_flagged.cpp:5\n"
             "determinism src/sim/determinism_flagged.cpp:10\n"
             "determinism src/sim/determinism_flagged.cpp:11\n");
  const std::string baseline_arg =
      "--baseline \"" + (root_ / "baseline.txt").string() + "\"";
  const RunOutput suppressed = run_lint(baseline_arg);
  EXPECT_EQ(suppressed.exit_code, 0) << suppressed.text;

  write_file("baseline.txt",
             "determinism src/sim/determinism_flagged.cpp:5\n"
             "determinism src/sim/determinism_flagged.cpp:10\n"
             "determinism src/sim/determinism_flagged.cpp:11\n"
             "determinism src/sim/determinism_flagged.cpp:99\n");
  const RunOutput stale = run_lint(baseline_arg);
  EXPECT_EQ(stale.exit_code, 1) << stale.text;
  EXPECT_NE(stale.text.find("stale baseline entry"), std::string::npos)
      << stale.text;
}

TEST_F(LintToolTest, AssertDisciplineFlagsRawAssert) {
  install("assert_flagged.cpp", "src/version/assert_flagged.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/version/assert_flagged.cpp", 5,
                 "assert-discipline");
}

TEST_F(LintToolTest, AssertDisciplineAllowsStaticAssertAndEnsure) {
  install("assert_near_miss.cpp", "src/version/assert_near_miss.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, ValidSuppressionsSilenceFindings) {
  install("suppression_ok.cpp", "src/sim/suppression_ok.cpp");
  expect_clean(run_lint());
}

TEST_F(LintToolTest, BareSuppressionIsAFindingAndSuppressesNothing) {
  install("suppression_bare.cpp", "src/sim/suppression_bare.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/sim/suppression_bare.cpp", 6,
                 "suppression-reason");
  expect_finding(out, "src/sim/suppression_bare.cpp", 7, "determinism");
}

TEST_F(LintToolTest, UnknownRuleSuppressionIsAFinding) {
  install("suppression_unknown.cpp", "src/sim/suppression_unknown.cpp");
  const RunOutput out = run_lint();
  EXPECT_EQ(out.exit_code, 1) << out.text;
  expect_finding(out, "src/sim/suppression_unknown.cpp", 6,
                 "suppression-reason");
  expect_finding(out, "src/sim/suppression_unknown.cpp", 7, "determinism");
}

TEST_F(LintToolTest, CleanTreeExitsZero) {
  install("iteration_near_miss.cpp", "src/sim/a.cpp");
  install("wire_near_miss.cpp", "src/net/b.cpp");
  install("assert_near_miss.cpp", "src/version/c.cpp");
  expect_clean(run_lint());
}

}  // namespace
