#!/usr/bin/env bash
# The end-to-end benchmark's one command. It builds bench_e2e from the
# sources of the checkout it sits in, then runs it.
#
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       One workload in one process. The last line of stdout is the JSON
#       result {"correct", "attempted", "failed", "metrics"}; the full row
#       (and, traced, the Chrome trace) lands in the build directory.
#
#   bench/e2e/run.sh [--seed N] [--trace PATH] [--smoke] [--sets K]
#                    [--out FILE]
#       Every workload, each in its own process, in reversed order on
#       alternate sets; writes BENCH_e2e.json and prints the metric table
#       (bench/e2e/run.py).
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build) under e2e/.
# Exits non-zero when the build fails or any correctness check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no repository sources under $root; bench_e2e cannot be built" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" == /* ]] || build="$PWD/$build"
build="$build/e2e"

nproc="$(nproc)"
jobs=$((nproc < 8 ? nproc : 8))
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target bench_e2e -j "$jobs" >&2

# Load comes from one process with at most min(4, nproc) threads.
export RAIN_NUM_THREADS="${RAIN_NUM_THREADS:-$((nproc < 4 ? nproc : 4))}"

for arg in "$@"; do
  if [[ "$arg" == "--workload" ]]; then
    exec "$build/bench_e2e" --out-dir "$build" "$@"
  fi
done
exec python3 "$here/run.py" --bin "$build/bench_e2e" --work-dir "$build" "$@"
