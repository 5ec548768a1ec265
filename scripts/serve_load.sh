#!/usr/bin/env bash
# Swarm load run for the crpd scheduler: drives the release-mode
# `swarm_full` harness (hundreds of concurrent loopback clients, three
# tenants, mixed job sizes) and writes the benchmark trajectory file
# BENCH_serve.json with p50/p95/p99 submit/status/fetch latencies,
# throughput, and final per-tenant admission counters.
#
#   SWARM_CLIENTS=40 scripts/serve_load.sh        # scaled-down (CI)
#   scripts/serve_load.sh                          # full 200-client run
#   BENCH_SERVE_OUT=/tmp/b.json scripts/serve_load.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_SERVE_OUT:-BENCH_serve.json}"
# cargo runs the test binary from crates/serve, so hand it an absolute
# path; a relative one would land beside the crate, not here.
case "$OUT" in
  /*) ;;
  *) OUT="$PWD/$OUT" ;;
esac

if [ -n "${SWARM_CLIENTS:-}" ] && [ "${SWARM_CLIENTS}" -lt 200 ]; then
  # Scaled-down swarms go through swarm_small so the >=200-client floor
  # baked into swarm_full still holds for real benchmark runs.
  TEST=swarm_small
  EXTRA=()
else
  TEST=swarm_full
  EXTRA=(--ignored)
fi

echo "serve-load: running ${TEST} (SWARM_CLIENTS=${SWARM_CLIENTS:-default}) -> ${OUT}"
BENCH_SERVE_OUT="$OUT" cargo test --release -p crp-serve --test swarm \
  -- "$TEST" "${EXTRA[@]}" --nocapture

test -s "$OUT" || { echo "serve-load: ${OUT} was not written" >&2; exit 1; }
echo "serve-load: benchmark written to ${OUT}:"
cat "$OUT"
