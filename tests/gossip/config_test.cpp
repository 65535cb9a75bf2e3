#include "gossip/config.hpp"

#include "gossip/node.hpp"

#include <gtest/gtest.h>

namespace updp2p::gossip {
namespace {

TEST(GossipConfig, DefaultsAreValid) {
  GossipConfig config;
  config.validate();  // must not abort
  SUCCEED();
}

TEST(GossipConfig, AbsoluteFanoutRoundsToNearest) {
  GossipConfig config;
  config.estimated_total_replicas = 1'000;
  config.fanout_fraction = 0.0154;
  EXPECT_EQ(config.absolute_fanout(), 15u);
  config.fanout_fraction = 0.0156;
  EXPECT_EQ(config.absolute_fanout(), 16u);
}

TEST(GossipConfig, AbsoluteFanoutNeverZero) {
  GossipConfig config;
  config.estimated_total_replicas = 10;
  config.fanout_fraction = 0.001;  // 0.01 peers
  EXPECT_EQ(config.absolute_fanout(), 1u);
}

TEST(GossipConfig, ValidationCatchesEachBadField) {
  {
    GossipConfig config;
    config.fanout_fraction = 1.5;
    EXPECT_DEATH(config.validate(), "f_r");
  }
  {
    GossipConfig config;
    config.estimated_total_replicas = 0;
    EXPECT_DEATH(config.validate(), "population");
  }
  {
    GossipConfig config;
    config.pull.contacts_per_attempt = 0;
    EXPECT_DEATH(config.validate(), "at least one");
  }
}

TEST(GossipConfig, PreferredWeightAppliesToNodeView) {
  GossipConfig config;
  config.estimated_total_replicas = 10;
  config.fanout_fraction = 0.3;
  config.acks.preferred_weight = 5;
  gossip::ReplicaNode node(common::PeerId(0), config, common::StreamRng(1));
  EXPECT_EQ(node.view().preferred_weight(), 5u);
}

}  // namespace
}  // namespace updp2p::gossip
