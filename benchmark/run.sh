#!/usr/bin/env bash
# The benchmark's one entry point.  Builds the package (offline, the root
# workspace's release profile, no LTO or target-cpu flags) and runs it.
#
#   benchmark/run.sh                          every workload, untraced then traced
#   benchmark/run.sh --seed N                 the same, inputs made from seed N
#   benchmark/run.sh --twice                  the suite twice, compared under its own bounds
#   benchmark/run.sh compare A.json B.json    verdict per (metric, workload)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run, one JSON line (what the driver calls)
#
# Exits non-zero when the build fails (as it does in a directory that holds
# only the benchmark) or, for the suite, on any correctness failure.
set -euo pipefail

# The checkout root: results, traces and scratch go to benchmark/out/ there.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Every engine sizes its rayon pool from this; pin it and stamp it.
export RAYON_NUM_THREADS="${RAYON_NUM_THREADS:-$(nproc)}"
# Shard workers are chosen per workload, never from the environment.
unset DSMC_EXEC_THREADS
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

# Build output goes to stderr: the run's last line of stdout is its result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

bin="${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark"
case " $* " in
  *" --workload "* | " compare "* | " spec "*) exec "$bin" "$@" ;;
  *) exec "$bin" suite "$@" ;;
esac
