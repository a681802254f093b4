#!/usr/bin/env bash
# Builds ktpmd and the perfbench load generator from the checkout in the
# current directory, then runs one benchmark invocation, e.g.
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ktpmd" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/ktpmd and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/ktpmd" ./cmd/ktpmd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -ktpmd "$out/ktpmd" -work "$out/runs" "$@"
