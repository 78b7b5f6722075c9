#!/usr/bin/env bash
# Builds the benchmark and the two serving daemons it drives (cmd/subserve,
# cmd/subgate) from the checkout in the current directory, then runs it:
#
#   bash perfbench/run.sh --workload bem-256 --seed 1 --seconds 50 --trace 0
#
# Every build artifact and Go cache lives under .bench_build/ in the
# checkout, so nothing is read or written outside it. The last stdout line
# is the JSON result; see perfbench/main.go for the workloads and metrics.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/subserve" || ! -d "$root/cmd/subgate" ]]; then
	echo "perfbench: run from the root of a subcouple checkout (no go.mod/cmd here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS= CGO_ENABLED=0

(cd "$root" && go build -o "$out/bin/subserve" ./cmd/subserve && go build -o "$out/bin/subgate" ./cmd/subgate)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
