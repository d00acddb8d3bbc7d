#!/usr/bin/env bash
# Builds the p2drmd daemon and the benchmark driver from the source tree
# this script sits in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload playback --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the repository root).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
# With telemetry on, the go command forks a detached child that outlives
# it; turning telemetry off keeps every process of a run inside the run.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"

if [ ! -d cmd/p2drmd ] || [ ! -f go.mod ]; then
	echo "perfbench: no p2drm source tree at $root" >&2
	exit 1
fi
go build -o "$out/p2drmd" ./cmd/p2drmd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/p2drmd" -out "$out" "$@"
