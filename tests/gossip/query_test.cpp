#include "gossip/query.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "version/version_id.hpp"

namespace updp2p::gossip {
namespace {

using common::PeerId;

version::VersionedValue make_value(const std::string& payload,
                                   std::initializer_list<std::pair<int, int>>
                                       history,
                                   std::uint64_t id_seed) {
  version::VersionedValue value;
  value.key = "key";
  value.payload = payload;
  for (const auto& [peer, counter] : history) {
    value.history.observe(PeerId(static_cast<std::uint32_t>(peer)),
                          static_cast<std::uint64_t>(counter));
  }
  version::VersionIdFactory factory(PeerId(0), common::StreamRng(id_seed));
  value.id = factory.mint(0.0);
  return value;
}

QueryAnswer answer(std::uint32_t from, std::optional<version::VersionedValue> v,
                   bool confident = true) {
  return QueryAnswer{PeerId(from), std::move(v), confident};
}

TEST(Query, EmptyAnswersResolveToNothing) {
  const std::vector<QueryAnswer> answers;
  EXPECT_FALSE(resolve_query(answers, QueryRule::kLatestVersion).has_value());
}

TEST(Query, AllUnknownResolvesToNothing) {
  const std::vector<QueryAnswer> answers{answer(1, std::nullopt),
                                         answer(2, std::nullopt)};
  EXPECT_FALSE(resolve_query(answers, QueryRule::kMajority).has_value());
}

TEST(Query, LatestVersionPicksDominating) {
  const auto old_version = make_value("old", {{1, 1}}, 1);
  const auto new_version = make_value("new", {{1, 2}}, 2);
  const std::vector<QueryAnswer> answers{
      answer(1, old_version), answer(2, new_version), answer(3, old_version)};
  const auto result = resolve_query(answers, QueryRule::kLatestVersion);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, "new");
}

TEST(Query, MajorityPicksMostFrequent) {
  const auto a = make_value("a", {{1, 1}}, 1);
  const auto b = make_value("b", {{2, 1}}, 2);
  const std::vector<QueryAnswer> answers{answer(1, a), answer(2, a),
                                         answer(3, b)};
  const auto result = resolve_query(answers, QueryRule::kMajority);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->payload, "a");
}

TEST(Query, MajorityCanPickStaleVersion) {
  // The weakness of pure majority: three stale replicas outvote one fresh.
  const auto stale = make_value("stale", {{1, 1}}, 1);
  const auto fresh = make_value("fresh", {{1, 2}}, 2);
  const std::vector<QueryAnswer> answers{answer(1, stale), answer(2, stale),
                                         answer(3, stale), answer(4, fresh)};
  EXPECT_EQ(resolve_query(answers, QueryRule::kMajority)->payload, "stale");
  // The hybrid rule fixes exactly this (§4.4): dominated versions are
  // discarded before the vote.
  EXPECT_EQ(resolve_query(answers, QueryRule::kHybrid)->payload, "fresh");
}

TEST(Query, HybridVotesAmongConcurrentVersions) {
  const auto a = make_value("a", {{1, 1}}, 1);  // concurrent with b
  const auto b = make_value("b", {{2, 1}}, 2);
  const std::vector<QueryAnswer> answers{answer(1, a), answer(2, b),
                                         answer(3, b)};
  EXPECT_EQ(resolve_query(answers, QueryRule::kHybrid)->payload, "b");
}

TEST(Query, ConfidentAnswersPreferred) {
  const auto stale = make_value("stale", {{1, 1}}, 1);
  const auto fresh = make_value("fresh", {{1, 2}}, 2);
  const std::vector<QueryAnswer> answers{
      answer(1, stale, /*confident=*/true),
      answer(2, fresh, /*confident=*/false)};
  // Only the confident answer is considered first.
  EXPECT_EQ(resolve_query(answers, QueryRule::kLatestVersion)->payload,
            "stale");
}

TEST(Query, FallsBackToUnconfidentWhenNoConfidentAnswer) {
  const auto fresh = make_value("fresh", {{1, 2}}, 2);
  const std::vector<QueryAnswer> answers{
      answer(1, std::nullopt, /*confident=*/true),
      answer(2, fresh, /*confident=*/false)};
  EXPECT_EQ(resolve_query(answers, QueryRule::kLatestVersion)->payload,
            "fresh");
}

TEST(Query, AllRulesAgreeOnUnanimousAnswers) {
  const auto v = make_value("v", {{1, 3}}, 9);
  const std::vector<QueryAnswer> answers{answer(1, v), answer(2, v),
                                         answer(3, v)};
  for (const auto rule : {QueryRule::kLatestVersion, QueryRule::kMajority,
                          QueryRule::kHybrid}) {
    const auto result = resolve_query(answers, rule);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->payload, "v");
  }
}

TEST(Query, DeterministicTieBreakOnEqualVotes) {
  const auto a = make_value("a", {{1, 1}}, 1);
  const auto b = make_value("b", {{2, 1}}, 2);
  const std::vector<QueryAnswer> forward{answer(1, a), answer(2, b)};
  const std::vector<QueryAnswer> reversed{answer(2, b), answer(1, a)};
  EXPECT_EQ(resolve_query(forward, QueryRule::kMajority)->id,
            resolve_query(reversed, QueryRule::kMajority)->id);
}

TEST(Query, RuleNames) {
  EXPECT_STREQ(to_string(QueryRule::kLatestVersion), "latest-version");
  EXPECT_STREQ(to_string(QueryRule::kMajority), "majority");
  EXPECT_STREQ(to_string(QueryRule::kHybrid), "hybrid");
}

}  // namespace
}  // namespace updp2p::gossip
