#!/usr/bin/env bash
# Builds the ledger from source and runs it with the given arguments.
#
#   bash perfledger/run.sh --workload campaign-late --seed 7 --seconds 15 --trace 0
#   bash perfledger/run.sh -traced          # every workload, untraced then traced
#
# Everything the build and the run write stays inside the checkout: the
# binary, Go's build cache and the durable store of service-sharded live
# under .bench_build/, result sets and spans under perfledger/current/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build/perfledger"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
export PERFLEDGER_TMP="$build/tmp"
go build -C perfledger -o "$build/ledger" . >&2
exec "$build/ledger" "$@"
