// Output helpers shared by the LD_PRELOAD profilers in tools/profile.
//
// Both write a text file that tools/profile/report.py reads: a header line
// naming the profiler, a few "key value" lines, one "map" line per
// file-backed mapping of the process (so addresses can be turned into
// (file, offset) pairs for addr2line), then the profiler's own records.
#pragma once

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

/// Opens the output file named by environment variable `name` (or
/// `fallback`), with every "%p" replaced by the process id.
static inline FILE* profile_open_output(const char* name,
                                        const char* fallback) {
  const char* pattern = getenv(name);
  if (pattern == NULL || *pattern == '\0') pattern = fallback;
  char path[4096];
  size_t used = 0;
  for (const char* c = pattern; *c != '\0' && used + 32 < sizeof path; ++c) {
    if (c[0] == '%' && c[1] == 'p') {
      used += (size_t)snprintf(path + used, sizeof path - used, "%ld",
                               (long)getpid());
      ++c;
    } else {
      path[used++] = *c;
    }
  }
  path[used] = '\0';
  return fopen(path, "w");
}

/// Copies /proc/self/maps' file-backed mappings as
/// "map <start> <end> <file offset> <path>" lines (hex numbers).
static inline void profile_write_maps(FILE* out) {
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps == NULL) return;
  char line[4096];
  while (fgets(line, sizeof line, maps) != NULL) {
    unsigned long start = 0, end = 0, offset = 0;
    char perms[8];
    int path_at = 0;
    if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
               &offset, &path_at) < 4 ||
        path_at == 0 || line[path_at] != '/') {
      continue;
    }
    line[strcspn(line, "\n")] = '\0';
    fprintf(out, "map %lx %lx %lx %s\n", start, end, offset, line + path_at);
  }
  fclose(maps);
}
