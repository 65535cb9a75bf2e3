// Compilation smoke test: the umbrella header pulls in a coherent API.
#include "updp2p.hpp"

#include <gtest/gtest.h>

namespace updp2p {
namespace {

TEST(Umbrella, EverythingIsReachable) {
  common::StreamRng rng(1);
  gossip::GossipConfig config;
  config.estimated_total_replicas = 10;
  config.fanout_fraction = 0.3;
  gossip::ReplicaNode node(common::PeerId(0), config,
                           common::StreamRng(rng(), 0));
  const std::vector<common::PeerId> view{common::PeerId(1), common::PeerId(2)};
  node.bootstrap(view);
  EXPECT_EQ(node.view().size(), 2u);

  analysis::PushModelParams params;
  EXPECT_GT(analysis::evaluate_push(params).total_messages(), 0.0);
}

}  // namespace
}  // namespace updp2p
