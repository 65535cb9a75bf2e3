// Fixture: the allowed forms next to the xoshiro engine's name. StreamRng
// and RngOps are not the engine, and neither is the word Rng in a comment
// or a string.
#include "common/rng.hpp"

namespace updp2p::gossip {

template <typename Engine>
double draw(common::RngOps<Engine>& ops) {
  return ops.uniform01();
}

double keyed(unsigned long long seed) {
  common::StreamRng rng(seed, 0, 0x5E55);
  const char* label = "common::Rng";
  (void)label;
  return draw(rng);
}

}  // namespace updp2p::gossip
