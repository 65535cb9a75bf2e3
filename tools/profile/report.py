#!/usr/bin/env python3
"""Symbolise and summarise a profile written by tools/profile's preloads.

    python3 tools/profile/report.py cpu.prof [--top 25]
    python3 tools/profile/report.py heap.prof [--top 25] [--snapshot sigusr1]

A sampler profile (sampler.c) prints, per function, its self share (the
samples whose innermost frame it is) and its inclusive share (the samples
with it anywhere on the stack, counted once per sample), over all samples.

A heap profile (heapprof.c) prints the live bytes at the peak snapshot (or
the SIGUSR1 one) by call site: each site is named by its first frame
outside the allocator and the C++ standard library, followed by its
callers, with its share of the snapshot's live bytes and its live blocks.
Sites with the same name are summed.

Addresses are symbolised with `addr2line -f -C -i`, so a frame inside
inlined code names the inlined function first, then each function it was
inlined into. Build the profiled program with -g for file and line
information; without it the report falls back to symbol names.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

# Heap frames skipped when naming a site, matched against the function name
# without its parameter list: the allocator, the standard library (also
# where a return type precedes it) and its inlined helpers, and the
# profiler itself.
SKIPPED_FRAMES = re.compile(
    r"^(operator new|operator delete|malloc|calloc|realloc|"
    r"memalign|aligned_alloc|posix_memalign|track|allocate|"
    r"construct|_M_\w+|__\w+|\?\?)|(^|[ &*])(std|__gnu_cxx)::")


class Mapping:
    def __init__(self, start, end, offset, path):
        self.start, self.end, self.offset, self.path = start, end, offset, path


def parse(path):
    """Returns (kind, fields, mappings, records)."""
    kind, fields, mappings, records = None, {}, [], []
    snapshot = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            head = parts[0]
            if head == "updp2p-profile":
                kind = parts[1]
            elif head == "map":
                mappings.append(Mapping(int(parts[1], 16), int(parts[2], 16),
                                        int(parts[3], 16),
                                        line.split(None, 4)[4].rstrip("\n")))
            elif head == "stack":
                records.append([int(a, 16) for a in parts[1:]])
            elif head == "snapshot":
                snapshot = parts[1]
                fields["snapshot " + snapshot] = int(parts[2])
            elif head == "site":
                records.append((snapshot, int(parts[1]), int(parts[2]),
                                int(parts[3]), [int(a, 16) for a in parts[4:]]))
            else:
                fields[head] = parts[1] if len(parts) > 1 else ""
    if kind not in ("sampler", "heap"):
        sys.exit(f"report: {path} is not a tools/profile output")
    return kind, fields, mappings, records


def is_shared_object(path):
    """True for ET_DYN (PIE executables, shared libraries)."""
    try:
        with open(path, "rb") as handle:
            header = handle.read(18)
    except OSError:
        return True
    return len(header) == 18 and header[:4] == b"\x7fELF" and \
        int.from_bytes(header[16:18], "little") == 3


class Symboliser:
    """Maps runtime addresses to [(function, location), ...], innermost
    inlined frame first, with one addr2line run per mapped file."""

    def __init__(self, mappings):
        self.mappings = sorted(mappings, key=lambda m: m.start)
        self.base = {}
        for m in self.mappings:
            if m.offset == 0 and m.path not in self.base:
                self.base[m.path] = m.start
        self.cache = {}

    def module_of(self, address):
        for m in self.mappings:
            if m.start <= address < m.end:
                return m
        return None

    def resolve(self, addresses):
        by_file = collections.defaultdict(set)
        for address in addresses:
            if address in self.cache:
                continue
            m = self.module_of(address)
            if m is None:
                self.cache[address] = [(f"0x{address:x}", "?")]
                continue
            relative = address
            if is_shared_object(m.path):
                relative = address - self.base.get(m.path, m.start - m.offset)
            by_file[m.path].add((address, relative))
        for path, pairs in by_file.items():
            pairs = sorted(pairs)
            text = "\n".join(f"0x{relative:x}" for _, relative in pairs)
            try:
                done = subprocess.run(
                    ["addr2line", "-e", path, "-f", "-C", "-i", "-a"],
                    input=text, capture_output=True, text=True, check=False)
                groups = split_groups(done.stdout)
            except OSError:
                groups = []
            name = os.path.basename(path)
            for index, (address, relative) in enumerate(pairs):
                frames = groups[index] if index < len(groups) else []
                self.cache[address] = frames or [
                    (f"{name}+0x{relative:x}", "?")]

    def frames(self, address):
        return self.cache[address]


def split_groups(output):
    """addr2line -a output: an address line, then (function, file:line)
    pairs, one per inlined frame."""
    groups = []
    lines = output.splitlines()
    index = 0
    while index < len(lines):
        if re.fullmatch(r"0x[0-9a-f]+", lines[index]):
            groups.append([])
            index += 1
            continue
        function = lines[index]
        location = lines[index + 1] if index + 1 < len(lines) else "?"
        if groups:
            groups[-1].append((function, location))
        index += 2
    return groups


def short_location(location):
    location = location.split(" (discriminator")[0]
    return location if location.startswith("?") else \
        "/".join(location.split("/")[-2:])


def lookup_address(stack, depth, leaf_is_pc):
    """Return addresses are looked up one byte back, at the call
    instruction; a sampled leaf is the interrupted instruction itself."""
    return stack[depth] if depth == 0 and leaf_is_pc else stack[depth] - 1


def expand(symboliser, stack, leaf_is_pc):
    """The symbolised frames of one stack, innermost first."""
    frames = []
    for depth in range(len(stack)):
        frames.extend(
            symboliser.frames(lookup_address(stack, depth, leaf_is_pc)))
    return frames


def lookup_addresses(stacks, leaf_is_pc):
    return {lookup_address(stack, depth, leaf_is_pc)
            for stack in stacks for depth in range(len(stack))}


def report_sampler(fields, mappings, stacks, top):
    symboliser = Symboliser(mappings)
    symboliser.resolve(lookup_addresses(stacks, leaf_is_pc=True))
    self_counts = collections.Counter()
    inclusive = collections.Counter()
    where = {}
    for stack in stacks:
        frames = expand(symboliser, stack, leaf_is_pc=True)
        if not frames:
            continue
        self_counts[frames[0][0]] += 1
        for function, location in frames:
            where.setdefault(function, location)
        inclusive.update({function for function, _ in frames})
    total = len(stacks)
    print(f"samples {total} (dropped {fields.get('dropped', '0')}, "
          f"every {fields.get('interval_us', '?')} us of CPU time)")
    if total == 0:
        return
    for title, counts in (("self", self_counts), ("inclusive", inclusive)):
        print(f"\n{title}:")
        for function, count in counts.most_common(top):
            print(f"  {100.0 * count / total:6.2f} %  {count:8d}  {function}"
                  f"  [{short_location(where.get(function, '?'))}]")


def report_heap(fields, mappings, sites, top, snapshot):
    chosen = [s for s in sites if s[0] == snapshot]
    total = int(fields.get("snapshot " + snapshot, 0))
    print(f"peak live bytes {int(fields.get('peak_live_bytes', 0)):,}; "
          f"snapshot '{snapshot}' {total:,} live bytes over {len(chosen)} "
          f"sites ({fields.get('sites', '?')} seen, "
          f"{fields.get('untracked_blocks', '0')} blocks untracked)")
    if not chosen or total <= 0:
        return
    symboliser = Symboliser(mappings)
    symboliser.resolve(lookup_addresses([s[4] for s in chosen],
                                        leaf_is_pc=False))
    by_name = collections.defaultdict(lambda: [0, 0])
    for _, live, blocks, _, stack in chosen:
        frames = expand(symboliser, stack, leaf_is_pc=False)
        kept = [f for f in frames
                if not SKIPPED_FRAMES.search(short_name(f[0]))] or frames
        leaf = kept[0]
        callers = " <- ".join(short_name(f[0]) for f in kept[1:4])
        name = f"{short_name(leaf[0])}  [{short_location(leaf[1])}]"
        if callers:
            name += f"\n{'':32}<- {callers}"
        entry = by_name[name]
        entry[0] += live
        entry[1] += blocks
    ranked = sorted(by_name.items(), key=lambda item: -item[1][0])
    print(f"\n{'share':>8} {'live bytes':>14} {'blocks':>9}  site")
    for name, (live, blocks) in ranked[:top]:
        print(f"{100.0 * live / total:7.2f} % {live:14,} {blocks:9,}  {name}")


def short_name(function):
    """A function name without its parameter list."""
    function = function.replace("(anonymous namespace)", "{anonymous}")
    depth = 0
    for index, char in enumerate(function):
        if char in "<":
            depth += 1
        elif char in ">":
            depth -= 1
        elif char == "(" and depth == 0 and index > 0:
            return function[:index]
    return function


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("profile", help="file a tools/profile preload wrote")
    parser.add_argument("--top", type=int, default=25,
                        help="rows per table (default 25)")
    parser.add_argument("--snapshot", default="peak",
                        help="heap snapshot to report: peak or sigusr1")
    args = parser.parse_args()
    kind, fields, mappings, records = parse(args.profile)
    if kind == "sampler":
        report_sampler(fields, mappings, records, args.top)
    else:
        report_heap(fields, mappings, records, args.top, args.snapshot)


if __name__ == "__main__":
    main()
