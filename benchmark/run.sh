#!/usr/bin/env bash
# Build `a4nn` and the benchmark harness in release mode, then run the
# harness. Usage and the result format are in benchmark/README.md:
#
#   benchmark/run.sh [--seed N] [--repeats K] [--workload NAME] [--trace] [--smoke]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

invoked_from="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds, so the crates the binary and the
# harness share compile once. A relative CARGO_TARGET_DIR means what it
# meant where the caller stood.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$invoked_from/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

build_started="$(date +%s%N)"
# The repository resolves every dependency in-tree; --offline keeps cargo
# from reaching for a registry that is not there.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p a4nn-cli >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
build_ms=$(( ($(date +%s%N) - build_started) / 1000000 ))

harness="$target/release/a4nn-benchmark"
if [[ "${1:-}" == "compare" ]]; then
    exec "$harness" "$@"
fi
printf 'build_s = %d.%03d s\n' $((build_ms / 1000)) $((build_ms % 1000))
cd "$root"
exec "$harness" --a4nn "$target/release/a4nn" --root "$root" "$@"
