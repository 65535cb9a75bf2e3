// Rule: determinism
//
// Protects the engine's headline guarantee: bit-identical RunMetrics at any
// shard/thread count (DESIGN.md §6). Every source of entropy in the
// deterministic core must flow through a keyed common::StreamRng; a
// single wall-clock read or std::random_device in gossip/sim code silently
// breaks the golden tests' meaning even when they still pass on one machine.
//
// Banned in the deterministic directories:
//   * std::random_device
//   * std::rand / std::srand
//   * std::chrono::{system_clock, steady_clock, high_resolution_clock}
//   * argless / null-arg time()  (time(), time(nullptr), time(NULL), time(0))
//
// Allowlisted directories (real time is the point there): src/runtime,
// src/net, examples/, bench/, tools/.

#include "updp2p_lint/rule.hpp"
#include "updp2p_lint/token_match.hpp"

namespace updp2p::lint {
namespace {

constexpr std::string_view kDeterministicDirs[] = {
    "src/sim/",  "src/gossip/", "src/analysis/", "src/baselines/",
    "src/churn/", "src/version/", "src/pgrid/",  "src/common/",
    "src/chaos/",
};

bool in_deterministic_scope(std::string_view path) {
  for (const std::string_view dir : kDeterministicDirs) {
    if (path.substr(0, dir.size()) == dir) return true;
  }
  return false;
}

class DeterminismRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const override { return "determinism"; }
  [[nodiscard]] std::string_view summary() const override {
    return "wall clocks and ambient entropy are banned in the deterministic "
           "core; key a common::StreamRng and use the simulated round clock";
  }

  void check(const FileContext& file, std::vector<Finding>& out) const override {
    if (!in_deterministic_scope(file.path)) return;
    const auto& tokens = file.tokens();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const Token& t = tokens[i];
      if (t.kind != TokenKind::kIdentifier || t.preproc) continue;

      if (t.text == "random_device") {
        out.push_back({file.path, t.line, std::string(id()),
                       "std::random_device is ambient entropy; key a "
                       "common::StreamRng purpose instead"});
        continue;
      }
      if (t.text == "system_clock" || t.text == "steady_clock" ||
          t.text == "high_resolution_clock") {
        out.push_back({file.path, t.line, std::string(id()),
                       "wall clock (" + t.text +
                           ") in deterministic code; time must come from "
                           "the simulated round counter"});
        continue;
      }
      if ((t.text == "rand" || t.text == "srand") &&
          !is_member_access(tokens, i)) {
        const Token* next = next_token(tokens, i);
        if (next != nullptr && is_punct(*next, "(")) {
          out.push_back({file.path, t.line, std::string(id()),
                         "std::" + t.text +
                             "() is hidden global RNG state; key a "
                             "common::StreamRng"});
        }
        continue;
      }
      if (t.text == "time" && !is_member_access(tokens, i)) {
        // Only the C `time()` call: `time(` followed by `)`, nullptr,
        // NULL or 0. Leaves `x.time`, `time_point`, `round_time(now)` alone.
        const Token* open = next_token(tokens, i);
        const Token* arg = next_token(tokens, i, 2);
        if (open != nullptr && is_punct(*open, "(") && arg != nullptr &&
            (is_punct(*arg, ")") || is_ident(*arg, "nullptr") ||
             is_ident(*arg, "NULL") ||
             (arg->kind == TokenKind::kNumber && arg->text == "0"))) {
          out.push_back({file.path, t.line, std::string(id()),
                         "time() reads the wall clock; deterministic code "
                         "must use the simulated round counter"});
        }
        continue;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Rule> make_determinism_rule() {
  return std::make_unique<DeterminismRule>();
}

}  // namespace updp2p::lint
