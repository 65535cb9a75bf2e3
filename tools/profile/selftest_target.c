// Self-test target for tools/profile (run by tools/profile/selftest.sh):
// spends nearly all of its CPU time in spin_hot() and holds nearly all of
// its peak heap in the blocks hold_blocks() allocates.
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

__attribute__((noinline)) static double spin_hot(long rounds) {
  double x = 1.0;
  for (long i = 0; i < rounds; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

__attribute__((noinline)) static void** hold_blocks(int count, size_t size) {
  void** blocks = malloc((size_t)count * sizeof(void*));
  for (int i = 0; i < count; ++i) {
    blocks[i] = malloc(size);
    memset(blocks[i], i, size);
  }
  return blocks;
}

int main(int argc, char** argv) {
  const long rounds = argc > 1 ? atol(argv[1]) : 300000000L;
  void** held = hold_blocks(64, 64 * 1024);
  printf("%g\n", spin_hot(rounds));
  for (int i = 0; i < 64; ++i) free(held[i]);
  free(held);
  return 0;
}
