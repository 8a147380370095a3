#!/usr/bin/env bash
# The one command: builds the harness, the real cnp_server and (for traced
# runs) cnp_layers from source, then runs the benchmark with whatever
# arguments follow.
#
#   bash benchmark/run.sh                                    # the whole suite
#   bash benchmark/run.sh --workload tag_docs --seed 7 --seconds 12 --trace 0
#   bash benchmark/run.sh --compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both workspaces when the caller names one
# (relative names are relative to where the caller stands); otherwise each
# workspace's own target/, which is where `cargo build --release` at the
# repo root leaves target/release/cnp_server.
if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
  mkdir -p "$CARGO_TARGET_DIR"
  CARGO_TARGET_DIR="$(cd "$CARGO_TARGET_DIR" && pwd)"
  export CARGO_TARGET_DIR
  harness_bin="$CARGO_TARGET_DIR/release"
  server_bin="$CARGO_TARGET_DIR/release"
else
  harness_bin="$here/target/release"
  server_bin="$root/target/release"
fi

cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" --bin cnp_benchmark
cargo build --quiet --release --offline --manifest-path "$root/Cargo.toml" -p cnp_server --bin cnp_server

layers=()
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--trace" ]]; then trace="${args[i + 1]:-0}"; fi
done
if [[ "$trace" != "0" ]]; then
  # Built only when asked for: a change that breaks this target's build
  # must not take the end-to-end numbers down with it.
  cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" --bin cnp_layers
  layers=(--layers "$harness_bin/cnp_layers")
fi

exec "$harness_bin/cnp_benchmark" \
  --server "$server_bin/cnp_server" \
  --out "$here/out" \
  --manifest "$root/BENCHMARK.json" \
  ${layers[@]+"${layers[@]}"} "$@"
