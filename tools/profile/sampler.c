// SIGPROF stack sampler, loaded with LD_PRELOAD.
//
// Samples the call stack of whichever thread is running every millisecond
// of process CPU time and writes the samples, with the process's file mappings, when the program
// exits normally. tools/profile/report.py symbolises and summarises them.
//
//   cc -O2 -g -fPIC -shared -o libupdp2p_sampler.so tools/profile/sampler.c
//   UPDP2P_SAMPLER_OUT=cpu.prof LD_PRELOAD=$PWD/libupdp2p_sampler.so ./prog
//   python3 tools/profile/report.py cpu.prof
//
// Stacks come from glibc's backtrace(), which unwinds with DWARF call
// frame information, so the profiled program needs no frame pointers; a
// Release build with -g symbolises to source lines. UPDP2P_SAMPLER_OUT
// names the output file ("%p" becomes the process id; default
// "sampler.%p.prof"). A program killed by a signal writes nothing.
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
#include <sys/time.h>
#include <unistd.h>

#include "profile_common.h"

enum {
  kIntervalUs = 1000,  // process CPU time between samples
  kMaxDepth = 64,
  // backtrace() from the handler starts with the handler and the kernel's
  // signal trampoline; the interrupted instruction is the third frame.
  kHandlerFrames = 2,
  kBufferWords = 16 << 20,  // 128 MiB of address space, touched as filled
};

// Samples as [depth, frame 0 (leaf), ..., frame depth-1] words in one
// mapping reserved up front: the handler may not allocate.
static uintptr_t* buffer;
static atomic_size_t used;
static atomic_size_t dropped;
static atomic_int active;

static void on_sigprof(int signo) {
  (void)signo;
  if (!atomic_load_explicit(&active, memory_order_relaxed)) return;
  const int saved_errno = errno;
  void* frames[kMaxDepth + kHandlerFrames];
  const int got = backtrace(frames, kMaxDepth + kHandlerFrames);
  const size_t depth =
      got > kHandlerFrames ? (size_t)(got - kHandlerFrames) : 0;
  // A sample claims its words whole, so a reader walks [depth, frames...]
  // records until a zero depth: the unclaimed or dropped tail.
  const size_t at =
      depth == 0 ? kBufferWords : atomic_fetch_add(&used, depth + 1);
  if (at + depth + 1 > kBufferWords) {
    atomic_fetch_add(&dropped, 1);
  } else {
    buffer[at] = depth;
    for (size_t i = 0; i < depth; ++i) {
      buffer[at + 1 + i] = (uintptr_t)frames[kHandlerFrames + i];
    }
  }
  errno = saved_errno;
}

__attribute__((constructor)) static void sampler_start(void) {
  buffer = mmap(NULL, kBufferWords * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    buffer = NULL;
    return;
  }
  // The first backtrace() loads libgcc_s; do it here, not in the handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;

  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  atomic_store(&active, 1);
  if (setitimer(ITIMER_PROF, &timer, NULL) != 0) atomic_store(&active, 0);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (buffer == NULL || !atomic_load(&active)) return;
  struct itimerval off;
  memset(&off, 0, sizeof off);
  (void)setitimer(ITIMER_PROF, &off, NULL);
  atomic_store(&active, 0);

  FILE* out = profile_open_output("UPDP2P_SAMPLER_OUT", "sampler.%p.prof");
  if (out == NULL) return;
  size_t end = atomic_load(&used);
  if (end > kBufferWords) end = kBufferWords;
  size_t samples = 0;
  for (size_t at = 0; at < end && buffer[at] != 0; at += buffer[at] + 1) {
    ++samples;
  }
  fprintf(out, "updp2p-profile sampler\n");
  fprintf(out, "interval_us %d\n", kIntervalUs);
  fprintf(out, "samples %zu\ndropped %zu\n", samples, atomic_load(&dropped));
  profile_write_maps(out);
  for (size_t at = 0; at < end && buffer[at] != 0; at += buffer[at] + 1) {
    fputs("stack", out);
    for (size_t i = 0; i < buffer[at]; ++i) {
      fprintf(out, " %" PRIxPTR, buffer[at + 1 + i]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
