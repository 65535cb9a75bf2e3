// Heap-by-call-site profiler, loaded with LD_PRELOAD.
//
// Wraps malloc, calloc, realloc, free and the aligned allocators, charges
// every live block to the call stack that allocated it, and keeps a
// snapshot of live bytes per call site taken at the heap's peak. On
// SIGUSR1 it takes a second snapshot, of the heap at that moment (at the
// next allocator call after the signal). Both are written, with the
// process's file mappings, when the program exits normally;
// tools/profile/report.py symbolises them and prints the top sites.
//
//   cc -O2 -g -fPIC -shared -o libupdp2p_heapprof.so tools/profile/heapprof.c
//   UPDP2P_HEAPPROF_OUT=heap.prof LD_PRELOAD=$PWD/libupdp2p_heapprof.so ./prog
//   python3 tools/profile/report.py heap.prof
//
// A call site is the innermost kMaxDepth frames of the allocating stack.
// The peak snapshot is retaken each time the live heap grows kStepBytes
// past the last one, so it shows the heap at its peak within one step.
// UPDP2P_HEAPPROF_OUT names the output file ("%p" becomes the process id;
// default "heapprof.%p.prof").
//
// Costs: one backtrace() per allocation (the program runs several times
// slower) and 16 bytes of profiler table per live block, which count in
// the process's RSS but not in the live bytes it reports. A program killed
// by a signal writes nothing.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <inttypes.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#include "profile_common.h"

// glibc's own allocator entry points: forwarding to them needs no dlsym.
extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t count, size_t size);
extern void* __libc_realloc(void* ptr, size_t size);
extern void* __libc_memalign(size_t alignment, size_t size);
extern void __libc_free(void* ptr);

enum {
  kMaxDepth = 8,  // frames kept per call site
  kMaxSites = 1 << 17,
  kStepBytes = 1 << 20,  // live-heap growth between peak snapshots
};

/// A call site: the stack that allocated, innermost first, with the live
/// bytes and blocks charged to it now and in each snapshot.
struct site {
  uint64_t hash;
  uintptr_t frames[kMaxDepth];
  uint32_t depth;
  int64_t live_bytes;
  int64_t live_blocks;
  uint64_t allocations;
  int64_t peak_bytes;  ///< live bytes in the peak snapshot
  int64_t peak_blocks;
  int64_t usr1_bytes;  ///< live bytes in the SIGUSR1 snapshot
  int64_t usr1_blocks;
};

/// One live block: its address (0 = empty slot), and its site index in
/// the top kSiteBits bits of `meta` above its size.
struct block {
  uintptr_t ptr;
  uint64_t meta;
};
enum { kSiteBits = 20, kSizeBits = 64 - kSiteBits };

static struct site* sites;  // dense, in order of first allocation
static uint32_t site_count;
static uint32_t* site_slots;  // open-addressed by stack hash: 1 + site index
static struct block* blocks;  // open-addressed by address, linear probing
static size_t block_slots;
static size_t block_count;

static int64_t live_total;
static int64_t peak_total;     ///< largest live_total seen
static int64_t peak_snapshot;  ///< live_total at the peak snapshot
static int64_t usr1_snapshot = -1;
static uint64_t untracked_blocks;  ///< the block table could not grow

static atomic_flag lock = ATOMIC_FLAG_INIT;
static int ready;
static volatile sig_atomic_t usr1_requested;
static __thread int in_profiler __attribute__((tls_model("initial-exec")));

static void acquire(void) {
  while (atomic_flag_test_and_set_explicit(&lock, memory_order_acquire)) {
  }
}
static void release(void) {
  atomic_flag_clear_explicit(&lock, memory_order_release);
}

static size_t block_home(uintptr_t ptr, size_t slots) {
  uint64_t h = (uint64_t)ptr * 0x9e3779b97f4a7c15ULL;
  return (size_t)(h >> 20) & (slots - 1);
}

static void* map_zeroed(size_t bytes) {
  void* p = mmap(NULL, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return p == MAP_FAILED ? NULL : p;
}

static void block_put(struct block* table, size_t slots, struct block entry) {
  size_t at = block_home(entry.ptr, slots);
  while (table[at].ptr != 0) at = (at + 1) & (slots - 1);
  table[at] = entry;
}

/// Doubles the block table once it is 70 % full.
static int blocks_make_room(void) {
  if ((block_count + 1) * 10 < block_slots * 7) return 1;
  const size_t slots = block_slots * 2;
  struct block* table = map_zeroed(slots * sizeof(struct block));
  if (table == NULL) return 0;
  for (size_t i = 0; i < block_slots; ++i) {
    if (blocks[i].ptr != 0) block_put(table, slots, blocks[i]);
  }
  munmap(blocks, block_slots * sizeof(struct block));
  blocks = table;
  block_slots = slots;
  return 1;
}

/// Removes `ptr`'s entry (backward-shift deletion); returns 0 if untracked.
static int block_take(uintptr_t ptr, struct block* taken) {
  size_t at = block_home(ptr, block_slots);
  while (blocks[at].ptr != ptr) {
    if (blocks[at].ptr == 0) return 0;
    at = (at + 1) & (block_slots - 1);
  }
  *taken = blocks[at];
  size_t hole = at;
  for (size_t next = (hole + 1) & (block_slots - 1); blocks[next].ptr != 0;
       next = (next + 1) & (block_slots - 1)) {
    const size_t home = block_home(blocks[next].ptr, block_slots);
    // Move the entry back if its home does not lie cyclically in (hole, next].
    const int stays = hole <= next ? (home > hole && home <= next)
                                   : (home > hole || home <= next);
    if (!stays) {
      blocks[hole] = blocks[next];
      hole = next;
    }
  }
  blocks[hole].ptr = 0;
  --block_count;
  return 1;
}

/// The index of the site for this stack, added on first sight; site 0
/// (the first stack seen) also takes every stack once the table is full.
static uint32_t site_of(void* const* frames, uint32_t depth) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (uint32_t i = 0; i < depth; ++i) {
    hash = (hash ^ (uint64_t)(uintptr_t)frames[i]) * 0x100000001b3ULL;
  }
  size_t at = (size_t)(hash >> 17) & (kMaxSites - 1);
  for (;;) {
    const uint32_t slot = site_slots[at];
    if (slot == 0) break;
    const struct site* s = &sites[slot - 1];
    if (s->hash == hash && s->depth == depth &&
        memcmp(s->frames, frames, depth * sizeof(uintptr_t)) == 0) {
      return slot - 1;
    }
    at = (at + 1) & (kMaxSites - 1);
  }
  if ((site_count + 1) * 4 > kMaxSites * 3) return 0;  // keep probes short
  struct site* s = &sites[site_count];
  s->hash = hash;
  s->depth = depth;
  memcpy(s->frames, frames, depth * sizeof(uintptr_t));
  site_slots[at] = ++site_count;
  return site_count - 1;
}

static void take_snapshot(int usr1) {
  for (uint32_t i = 0; i < site_count; ++i) {
    struct site* s = &sites[i];
    if (usr1) {
      s->usr1_bytes = s->live_bytes;
      s->usr1_blocks = s->live_blocks;
    } else {
      s->peak_bytes = s->live_bytes;
      s->peak_blocks = s->live_blocks;
    }
  }
  if (usr1) {
    usr1_snapshot = live_total;
  } else {
    peak_snapshot = live_total;
  }
}

enum { kOwnFrames = 2 };  // track() and the allocator function wrapping it

__attribute__((noinline)) static void track(void* ptr, size_t size) {
  if (ptr == NULL || !ready || in_profiler) return;
  in_profiler = 1;
  void* frames[kMaxDepth + kOwnFrames];
  const int got = backtrace(frames, kMaxDepth + kOwnFrames);
  const uint32_t depth = got > kOwnFrames ? (uint32_t)(got - kOwnFrames) : 0;
  acquire();
  if (!blocks_make_room()) {
    ++untracked_blocks;
  } else {
    const uint32_t index = site_of(frames + kOwnFrames, depth);
    struct site* s = &sites[index];
    s->live_bytes += (int64_t)size;
    ++s->live_blocks;
    ++s->allocations;
    block_put(blocks, block_slots,
              (struct block){(uintptr_t)ptr,
                             ((uint64_t)index << kSizeBits) | (uint64_t)size});
    ++block_count;
    live_total += (int64_t)size;
    if (live_total > peak_total) peak_total = live_total;
    if (live_total >= peak_snapshot + kStepBytes) take_snapshot(0);
  }
  if (usr1_requested) {
    usr1_requested = 0;
    take_snapshot(1);
  }
  release();
  in_profiler = 0;
}

/// Stops charging `ptr`; returns its size (0 if it was not tracked).
static size_t untrack(void* ptr) {
  if (ptr == NULL || !ready || in_profiler) return 0;
  acquire();
  struct block taken;
  size_t size = 0;
  if (block_take((uintptr_t)ptr, &taken)) {
    size = (size_t)(taken.meta & ((UINT64_C(1) << kSizeBits) - 1));
    struct site* s = &sites[taken.meta >> kSizeBits];
    s->live_bytes -= (int64_t)size;
    --s->live_blocks;
    live_total -= (int64_t)size;
  }
  if (usr1_requested) {
    usr1_requested = 0;
    take_snapshot(1);
  }
  release();
  return size;
}

void* malloc(size_t size) {
  void* p = __libc_malloc(size);
  track(p, size);
  return p;
}

void* calloc(size_t count, size_t size) {
  void* p = __libc_calloc(count, size);
  track(p, count * size);
  return p;
}

void* realloc(void* ptr, size_t size) {
  // Untracked before the call, as free() does, so no other thread can be
  // handed the address while it is still charged.
  const size_t old_size = untrack(ptr);
  void* p = __libc_realloc(ptr, size);
  if (p == NULL && size != 0) {
    track(ptr, old_size);  // failed: the old block lives on (this site)
  } else {
    track(p, size);
  }
  return p;
}

void free(void* ptr) {
  untrack(ptr);
  __libc_free(ptr);
}

void* memalign(size_t alignment, size_t size) {
  void* p = __libc_memalign(alignment, size);
  track(p, size);
  return p;
}

void* aligned_alloc(size_t alignment, size_t size) {
  return memalign(alignment, size);
}

int posix_memalign(void** out, size_t alignment, size_t size) {
  if (alignment < sizeof(void*) || (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  void* p = memalign(alignment, size);
  if (p == NULL) return ENOMEM;
  *out = p;
  return 0;
}

static void on_sigusr1(int signo) {
  (void)signo;
  usr1_requested = 1;
}

__attribute__((constructor)) static void heapprof_start(void) {
  in_profiler = 1;
  sites = map_zeroed(kMaxSites * sizeof(struct site));
  site_slots = map_zeroed(kMaxSites * sizeof(uint32_t));
  block_slots = 1 << 16;
  blocks = map_zeroed(block_slots * sizeof(struct block));
  // The first backtrace() loads libgcc_s, which allocates: do it untracked.
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_handler = on_sigusr1;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  (void)sigaction(SIGUSR1, &action, NULL);
  ready = sites != NULL && site_slots != NULL && blocks != NULL;
  in_profiler = 0;
}

static void write_snapshot(FILE* out, const char* label, int64_t total,
                           int usr1) {
  fprintf(out, "snapshot %s %" PRId64 "\n", label, total);
  for (uint32_t i = 0; i < site_count; ++i) {
    const struct site* s = &sites[i];
    const int64_t bytes = usr1 ? s->usr1_bytes : s->peak_bytes;
    const int64_t count = usr1 ? s->usr1_blocks : s->peak_blocks;
    if (bytes <= 0) continue;
    fprintf(out, "site %" PRId64 " %" PRId64 " %" PRIu64, bytes, count,
            s->allocations);
    for (uint32_t f = 0; f < s->depth; ++f) {
      fprintf(out, " %" PRIxPTR, s->frames[f]);
    }
    fputc('\n', out);
  }
}

__attribute__((destructor)) static void heapprof_stop(void) {
  if (!ready) return;
  in_profiler = 1;
  acquire();
  FILE* out = profile_open_output("UPDP2P_HEAPPROF_OUT", "heapprof.%p.prof");
  if (out != NULL) {
    fprintf(out, "updp2p-profile heap\n");
    fprintf(out, "peak_live_bytes %" PRId64 "\n", peak_total);
    fprintf(out, "live_bytes_at_exit %" PRId64 "\n", live_total);
    fprintf(out, "sites %" PRIu32 "\n", site_count);
    fprintf(out, "untracked_blocks %" PRIu64 "\n", untracked_blocks);
    profile_write_maps(out);
    write_snapshot(out, "peak", peak_snapshot, 0);
    if (usr1_snapshot >= 0) write_snapshot(out, "sigusr1", usr1_snapshot, 1);
    fclose(out);
  }
  release();
}
