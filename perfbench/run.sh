#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it confined to one CPU.
#
#   bash perfbench/run.sh --workload <serve_journal|serve_nojournal> \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the root of the checkout. The build goes to
# $CARGO_TARGET_DIR (default .bench_build); build output goes to stderr,
# so the last line of stdout is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/perfbench"
# One malloc arena: each served campaign starts fresh server threads,
# and with glibc's per-thread arenas the memory they leave behind made
# the peak resident set wander by a third between identical runs.
export MALLOC_ARENA_MAX=1
if command -v taskset >/dev/null 2>&1; then
    # The last CPU this process may run on: CPU 0 takes most of the
    # timer and network interrupts, and its tails are the noisier.
    cpu="$(taskset -cp $$ | sed 's/.*: //; s/.*[,-]//')"
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
