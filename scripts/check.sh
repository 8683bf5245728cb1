#!/usr/bin/env bash
# Sanitizer gate for the concurrency layer plus the bench regression gate.
# Sanitizer runs build the executor, fault-injection, streaming, ingest/WAL,
# trace and hostile-input tests under ThreadSanitizer, AddressSanitizer and
# UndefinedBehaviorSanitizer and fail on any report
# (multi-producer StreamBuffer ingestion and the trace ring are exactly
# where TSan earns its keep). Run from anywhere; builds land in build-tsan/,
# build-asan/ and build-ubsan/ next to the normal build/.
#
#   scripts/check.sh              # TSan, ASan and UBSan
#   scripts/check.sh thread       # TSan only
#   scripts/check.sh address      # ASan only
#   scripts/check.sh undefined    # UBSan + _GLIBCXX_ASSERTIONS only
#   scripts/check.sh bench-smoke  # BENCH_*.json schema + >20% throughput
#                                 # regression gate vs bench/baselines/
#   scripts/check.sh unreached    # report functions no executable reaches
#                                 # and Options nothing sets (not a gate)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${1:-}" == "bench-smoke" ]]; then
  exec "$ROOT/scripts/bench_smoke.sh" "${@:2}"
fi

if [[ "${1:-}" == "unreached" ]]; then
  "$ROOT/scripts/unreached.py" || true
  exit 0
fi

SANITIZERS=("${@:-thread}" )
if [[ $# -eq 0 ]]; then
  SANITIZERS=(thread address undefined)
fi

GATED_TESTS=(executor_test inject_recovery_test pipeline_report_test
             stream_test series_view_test obs_test serve_test
             serve_trace_test health_test ingest_wal_test tick_parser_test
             framed_parser_test net_wire_test net_test shard_test
             shard_equivalence_test load_test flight_recorder_test
             debug_endpoint_test k_shortest_equivalence_test
             metrics_export_test histogram_test route_tree_reuse_test
             path_cost_cache_test routing_decision_test)

for SAN in "${SANITIZERS[@]}"; do
  BUILD="$ROOT/build-${SAN/thread/tsan}"
  BUILD="${BUILD/address/asan}"
  BUILD="${BUILD/undefined/ubsan}"
  echo "==== TSDM_SANITIZE=$SAN -> $BUILD ===="
  cmake -B "$BUILD" -S "$ROOT" -DTSDM_SANITIZE="$SAN" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$BUILD" -j"$(nproc)" --target "${GATED_TESTS[@]}"
  for TEST in "${GATED_TESTS[@]}"; do
    echo "---- $SAN: $TEST ----"
    "$BUILD/tests/$TEST"
  done
done
echo "==== sanitizer checks passed ===="
