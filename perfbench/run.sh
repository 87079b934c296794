#!/usr/bin/env bash
# Builds the serving benchmark and the programs it drives from the checkout
# it is run in, then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload refine-wire --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there, the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
unset XREFINE_BACKEND
# With telemetry in its default "local" mode the go command forks a
# detached sidecar that can outlive this script; turn it off for the
# build's own config directory before the first go command runs.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"
if [ ! -f go.mod ] || [ ! -d cmd/xserve ]; then
	echo "run.sh: $root holds no xrefine checkout (no go.mod or cmd/xserve)" >&2
	exit 1
fi
go build -o "$out/bin/" ./cmd/xserve ./cmd/xrefine ./cmd/xgen
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" "$@"
