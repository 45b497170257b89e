#!/bin/sh
# Flat gprof profile of one e2ebench workload.
#
#   tools/profile_e2e.sh <workload> <seconds> [top_n] [seed]
#
# Configures e2ebench/ (which compiles the engine from src/) as a Release
# build with -pg into .bench_build/gprof, runs the workload untraced for
# <seconds>, and prints the first [top_n] (default 30) entries of gprof's
# flat profile. The whole flat profile is kept in
# .bench_build/gprof/flat.txt for grepping. Samples include the benchmark's
# set-up and oracle answer checks, so engine shares read high.
#
# Example: tools/profile_e2e.sh paper_serial 8
set -eu

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: $0 <workload> <seconds> [top_n] [seed]" >&2
  exit 2
fi
workload=$1
seconds=$2
top_n=${3:-30}
seed=${4:-1}

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build/gprof"
jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/e2ebench" -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build" --target nestra_e2ebench -j "$jobs" >&2

# gmon.out lands in the working directory of the profiled process.
rm -f "$build/gmon.out"
(cd "$build" && ./nestra_e2ebench --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 >&2)
gprof -b -p "$build/nestra_e2ebench" "$build/gmon.out" > "$build/flat.txt"
head -n "$((top_n + 5))" "$build/flat.txt"
