#!/usr/bin/env bash
# Builds the release dbwipes-server and the benchmark program from source,
# then runs it with the given arguments. Run from the repository
# root:
#
#   bash benchmark/run.sh --workload explain_cold --seed 1 --seconds 40 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target). Only the
# benchmark's result line reaches standard output.
#
# The benchmark and the server it spawns are pinned to one CPU (the last
# this process may use), so a request never waits for a second virtual
# CPU to be woken and the reference kernel that gauges the host's speed
# runs where the server does. Without `taskset` the run is unpinned.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet -p dbwipes-server --bin dbwipes-server >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bench=("$target/release/dbwipes-loop-bench" --server "$target/release/dbwipes-server" "$@")
if command -v taskset >/dev/null && allowed=$(taskset -pc $$ 2>/dev/null); then
    cpu="${allowed##*[:,-]}"
    cpu="${cpu// /}"
    exec taskset -c "$cpu" "${bench[@]}"
fi
echo "run.sh: taskset unavailable; running unpinned" >&2
exec "${bench[@]}"
