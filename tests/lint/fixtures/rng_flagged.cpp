// Fixture: raw std engines and distributions outside src/common/rng.*.
#include <random>

int fork_the_discipline(unsigned seed) {
  std::mt19937 engine(seed);
  std::uniform_int_distribution<int> pick(0, 9);
  return pick(engine);
}

unsigned long long second_engine(unsigned long long seed) {
  updp2p::common::Rng rng(seed);
  return rng();
}
