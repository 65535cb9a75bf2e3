#include "churn/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "churn/heterogeneous.hpp"

namespace updp2p::churn {
namespace {

using common::PeerId;

TraceSchedule sample_schedule() {
  return TraceSchedule{{PeerId(0), PeerId(2)}, {}, {PeerId(1)}};
}

TEST(TraceIo, WriteFormat) {
  std::ostringstream out;
  write_trace(out, sample_schedule());
  EXPECT_EQ(out.str(), "0,0,2\n1\n2,1\n");
}

TEST(TraceIo, RoundTrip) {
  std::stringstream buffer;
  write_trace(buffer, sample_schedule());
  const auto parsed = read_trace(buffer, 3);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), 3u);
  EXPECT_EQ((*parsed)[0], sample_schedule()[0]);
  EXPECT_TRUE((*parsed)[1].empty());
  EXPECT_EQ((*parsed)[2], sample_schedule()[2]);
}

TEST(TraceIo, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    return read_trace(in, 10);
  };
  EXPECT_FALSE(parse("").has_value());            // empty
  EXPECT_FALSE(parse("1,0\n").has_value());       // rounds not from 0
  EXPECT_FALSE(parse("0,0\n2,1\n").has_value());  // gap
  EXPECT_FALSE(parse("0,abc\n").has_value());     // non-numeric id
  EXPECT_FALSE(parse("zero,1\n").has_value());    // non-numeric round
  EXPECT_FALSE(parse("0,99\n").has_value());      // id out of range
  EXPECT_FALSE(parse("0,1x\n").has_value());      // trailing garbage
}

TEST(TraceIo, SkipsBlankLines) {
  std::istringstream in("0,1\n\n1,2\n");
  const auto parsed = read_trace(in, 5);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/updp2p_trace.csv";
  ASSERT_TRUE(save_trace(path, sample_schedule()));
  const auto loaded = load_trace(path, 3);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), 3u);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileIsNullopt) {
  EXPECT_FALSE(load_trace("/definitely/not/here.csv", 3).has_value());
}

TEST(TraceIo, GeneratedDiurnalTraceSurvivesRoundTrip) {
  DiurnalTraceGenerator generator(50, 12, 0.6, 0.2);
  const auto schedule = generator.generate(24, 3);
  std::stringstream buffer;
  write_trace(buffer, schedule);
  const auto parsed = read_trace(buffer, 50);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), schedule.size());
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    EXPECT_EQ((*parsed)[r], schedule[r]) << "round " << r;
  }
  // And it feeds TraceChurn directly.
  TraceChurn churn(50, *parsed);
  common::StreamRng rng(1);
  churn.reset(rng);
  EXPECT_EQ(churn.online_count(), schedule[0].size());
}

}  // namespace
}  // namespace updp2p::churn
