#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace updp2p::common {
namespace {

/// The bytes write_csv_file writes for `rows`, into a file named after the
/// running test so that tests run in parallel do not share it.
std::string written(const std::vector<std::vector<std::string>>& rows) {
  const std::string dir = ::testing::TempDir();
  const std::string name =
      std::string("updp2p_csv_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  EXPECT_TRUE(write_csv_file(dir, name, rows));
  const std::string path = dir + "/" + name + ".csv";
  std::stringstream content;
  content << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  return content.str();
}

TEST(Csv, PlainRow) {
  EXPECT_EQ(written({{"a", "b", "c"}}), "a,b,c\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(written({{"plain"}}), "plain\n");
  EXPECT_EQ(written({{"with,comma"}}), "\"with,comma\"\n");
  EXPECT_EQ(written({{"say \"hi\""}}), "\"say \"\"hi\"\"\"\n");
  EXPECT_EQ(written({{"two\nlines"}}), "\"two\nlines\"\n");
}

TEST(Csv, WriteFileRoundTrip) {
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(write_csv_file(dir, "updp2p_csv_test",
                             {{"h1", "h2"}, {"1", "two,2"}}));
  std::ifstream in(dir + "/updp2p_csv_test.csv");
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "h1,h2\n1,\"two,2\"\n");
  std::remove((dir + "/updp2p_csv_test.csv").c_str());
}

TEST(Csv, WriteFileFailsGracefully) {
  // A regular file cannot serve as the target directory.
  const std::string blocker = ::testing::TempDir() + "/updp2p_blocker";
  std::ofstream(blocker) << "occupied";
  EXPECT_FALSE(write_csv_file(blocker, "x", {{"a"}}));
  std::remove(blocker.c_str());
}

TEST(Csv, WriteFileCreatesMissingDirectories) {
  const std::string dir = ::testing::TempDir() + "/updp2p_csv_nested/deeper";
  ASSERT_TRUE(write_csv_file(dir, "t", {{"a"}}));
  std::ifstream in(dir + "/t.csv");
  EXPECT_TRUE(in.good());
  std::remove((dir + "/t.csv").c_str());
}

}  // namespace
}  // namespace updp2p::common
