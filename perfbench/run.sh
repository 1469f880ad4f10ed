#!/usr/bin/env bash
# Builds the perfbench binary from the source tree in the current directory
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sessions_mixed --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build output (the binary, the Go
# build cache, Go's config and telemetry files) stays under the build
# directory, $CARGO_TARGET_DIR or .bench_build, inside that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod ]] || ! grep -qx 'module flicker' go.mod || [[ ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the root of the flicker repository (go.mod and perfbench/ not found in $root)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/gotmp
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false
export GOTELEMETRY=off

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
