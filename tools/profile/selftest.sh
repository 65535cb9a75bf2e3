#!/usr/bin/env bash
# Builds the tools/profile preloads into OUT_DIR and checks them on a tiny
# program: the sampler must find most of its CPU time in spin_hot(), and the
# heap profiler most of its peak heap in hold_blocks().
#
# Usage: tools/profile/selftest.sh OUT_DIR
set -euo pipefail
HERE="$(cd "$(dirname "$0")" && pwd)"
OUT="${1:?usage: selftest.sh OUT_DIR}"
CC="${CC:-cc}"
mkdir -p "${OUT}"
for lib in sampler heapprof; do
  "${CC}" -O2 -g -fPIC -shared -Wall -Wextra -Werror \
    -o "${OUT}/libupdp2p_${lib}.so" "${HERE}/${lib}.c"
done
"${CC}" -O1 -g -Wall -Wextra -Werror -o "${OUT}/selftest_target" \
  "${HERE}/selftest_target.c"

UPDP2P_SAMPLER_OUT="${OUT}/selftest.cpu.prof" \
  LD_PRELOAD="${OUT}/libupdp2p_sampler.so" "${OUT}/selftest_target" >/dev/null
python3 "${HERE}/report.py" "${OUT}/selftest.cpu.prof" --top 3 \
  | tee "${OUT}/selftest.cpu.txt"
# The first self row is spin_hot with at least half of the samples.
awk '/^self:/ {getline; exit !($1 >= 50 && $4 == "spin_hot")}' \
  "${OUT}/selftest.cpu.txt" || {
  echo "selftest: the sampler did not find spin_hot" >&2
  exit 1
}

UPDP2P_HEAPPROF_OUT="${OUT}/selftest.heap.prof" \
  LD_PRELOAD="${OUT}/libupdp2p_heapprof.so" "${OUT}/selftest_target" 1000 \
  >/dev/null
python3 "${HERE}/report.py" "${OUT}/selftest.heap.prof" --top 3 \
  | tee "${OUT}/selftest.heap.txt"
awk '/^ *share/ {getline; exit !($1 >= 90 && $5 == "hold_blocks")}' \
  "${OUT}/selftest.heap.txt" || {
  echo "selftest: the heap profiler did not find hold_blocks" >&2
  exit 1
}
echo "selftest: tools/profile OK"
