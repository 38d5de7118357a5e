#!/bin/sh
# Runs the gated benchmarks once and leaves their JSON artifacts in
# benchmarks/current/. Compare against the committed baseline with:
#
#   go run ./benchmarks/compare benchmarks/current/BENCH_*.json
#
# or promote a deliberate change with benchmarks/promote.sh.
set -e
cd "$(dirname "$0")/.."
mkdir -p benchmarks/current

# The two engine benchmarks live in internal/core, next to the replay and
# deep-clone reference implementations only that package's tests can reach;
# go test runs them from that directory, so the paths are absolute.
out="$(pwd)/benchmarks/current"

BENCH_CAMPAIGN_JSON="$out/BENCH_campaign.json" \
BENCH_OBS_JSON="$out/BENCH_obs.json" \
  go test -run '^$' -bench BenchmarkCampaignForkVsReplay -benchtime=1x ./internal/core

BENCH_FORK_JSON="$out/BENCH_fork.json" \
  go test -run '^$' -bench BenchmarkCOWForkVsDeepClone -benchtime=1x ./internal/core

echo "artifacts in benchmarks/current/"
