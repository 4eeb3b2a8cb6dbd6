#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
# The same entry point is used locally and by CI, so "it passed CI" and
# "it passed on my machine" mean the same command ran.
#
# Usage:
#   scripts/check.sh                 # plain build + ctest
#   AIMS_SANITIZE=thread scripts/check.sh   # TSan build (own build dir)
#   AIMS_SANITIZE=address scripts/check.sh  # ASan build (own build dir)
#   AIMS_BENCH_SMOKE=1 scripts/check.sh     # also run the server/obs bench
#                                           # smoke (artifacts in
#                                           # ${BUILD_DIR}/bench-artifacts)
#   AIMS_CRASH_SMOKE=<N> scripts/check.sh   # also run N SIGKILL+recover
#                                           # rounds (scripts/crash_smoke.sh;
#                                           # stats JSON in bench-artifacts)
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE="${AIMS_SANITIZE:-}"
BUILD_DIR="build"
CMAKE_ARGS=()
if [[ -n "${SANITIZE}" ]]; then
  BUILD_DIR="build-${SANITIZE}"
  CMAKE_ARGS+=("-DAIMS_SANITIZE=${SANITIZE}")
fi

cmake -B "${BUILD_DIR}" -S . "${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}"
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

# Every smoke step runs, even after one fails: run_step gives each its own
# subshell with errexit on, so a failing gate ends only that step. The
# script exits non-zero at the end, naming every step that failed.
FAILED_STEPS=()

# run_step <title> <stdout file, or - to pass it through> <command...>
run_step() {
  local title="$1" out="$2"
  shift 2
  echo "== ${title} =="
  local status=0
  set +e
  if [[ "${out}" == "-" ]]; then
    (set -e; "$@")
  else
    (set -e; "$@") > "${out}"
  fi
  status=$?
  set -e
  if [[ ${status} -ne 0 ]]; then
    echo "${title}: FAILED (exit ${status})" >&2
    FAILED_STEPS+=("${title}")
  fi
}

# The admin smoke handshake: bench_server stands up a loaded server with
# the loopback admin plane, publishes the ephemeral port to a file, and
# holds the server alive until we drop the .done sentinel. In between we
# scrape /metrics and /healthz over real HTTP and validate the Prometheus
# exposition.
admin_smoke() {
  PORT_FILE="$(mktemp "${TMPDIR:-/tmp}/aims_admin_port.XXXXXX")"
  rm -f "${PORT_FILE}" "${PORT_FILE}.done"
  AIMS_ADMIN_PORT_FILE="${PORT_FILE}" "./${BUILD_DIR}/bench/bench_server" \
    > "${ARTIFACT_DIR}/bench_server.json" &
  BENCH_PID=$!
  for _ in $(seq 1 300); do
    [[ -s "${PORT_FILE}" ]] && break
    sleep 0.1
  done
  # However this step ends, release the server: drop the sentinel, and
  # kill it if it has not exited by then.
  trap 'touch "${PORT_FILE}.done"; sleep 1; kill "${BENCH_PID}" 2>/dev/null
        rm -f "${PORT_FILE}" "${PORT_FILE}.done"' EXIT
  if [[ ! -s "${PORT_FILE}" ]]; then
    echo "bench smoke: admin port file never appeared" >&2
    exit 1
  fi
  ADMIN_PORT="$(cat "${PORT_FILE}")"
  echo "   admin plane live on 127.0.0.1:${ADMIN_PORT}"
  curl -sf "http://127.0.0.1:${ADMIN_PORT}/metrics" \
    > "${ARTIFACT_DIR}/admin_metrics.prom"
  curl -sf "http://127.0.0.1:${ADMIN_PORT}/healthz" \
    > "${ARTIFACT_DIR}/admin_healthz.json"
  # Exposition validity: every family used below is present, and every
  # non-comment line is "name{labels} value" with a numeric value.
  for family in aims_build_info aims_uptime_seconds \
      aims_catalog_ingest_count aims_shard_sessions; do
    if ! grep -q "^${family}" "${ARTIFACT_DIR}/admin_metrics.prom"; then
      echo "bench smoke: /metrics is missing family ${family}" >&2
      exit 1
    fi
  done
  awk '
    /^#/ { next }
    !/^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9]/ {
      print "bench smoke: bad exposition line: " $0 > "/dev/stderr"
      bad = 1
    }
    END { exit bad }
  ' "${ARTIFACT_DIR}/admin_metrics.prom"
  # /healthz shape: consumers parse this body, so its top-level keys are
  # pinned in order (new keys are only ever appended).
  python3 - "${ARTIFACT_DIR}/admin_healthz.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    keys = list(json.load(f).keys())
want = ["sequence", "uptime_ms", "window_ms", "level", "reasons",
        "queue_saturation", "wal_lag_saturation", "p99_ms",
        "shard_lock_p99_ms", "slow_query_per_sec", "last_transition",
        "rates", "slo"]
if keys != want:
    sys.exit("bench smoke: /healthz keys are %s, want %s" % (keys, want))
PY
  # Metrics history: range-query the self-scraped TSDB over the loaded
  # server and validate the Prometheus matrix shape carries real points.
  # Retry for a few seconds: the port is published moments after the
  # server starts, and date +%s truncation can place "end" before the
  # scraper's first samples.
  QUERY_RANGE_OK=0
  for _ in $(seq 1 20); do
    NOW_S="$(date +%s)"
    curl -sfG "http://127.0.0.1:${ADMIN_PORT}/api/v1/query_range" \
      --data-urlencode "query=ingest.completed" \
      --data-urlencode "start=$((NOW_S - 120))" \
      --data-urlencode "end=$((NOW_S + 1))" \
      --data-urlencode "step=1" \
      > "${ARTIFACT_DIR}/admin_query_range.json" || true
    if grep -q '"status":"success"' "${ARTIFACT_DIR}/admin_query_range.json" &&
        grep -q '"resultType":"matrix"' \
          "${ARTIFACT_DIR}/admin_query_range.json" &&
        grep -Eq '"values":\[\[[0-9]' \
          "${ARTIFACT_DIR}/admin_query_range.json"; then
      QUERY_RANGE_OK=1
      break
    fi
    sleep 0.5
  done
  if [[ "${QUERY_RANGE_OK}" != "1" ]]; then
    echo "bench smoke: query_range never returned a matrix with points" >&2
    cat "${ARTIFACT_DIR}/admin_query_range.json" >&2 || true
    exit 1
  fi
  touch "${PORT_FILE}.done"
  wait "${BENCH_PID}"
  trap - EXIT
  rm -f "${PORT_FILE}" "${PORT_FILE}.done"
  echo "   /metrics, /healthz, and /api/v1/query_range scraped live (artifacts saved)"
}

perfbench_self_test() {
  CARGO_TARGET_DIR="${BUILD_DIR}/perfbench-target" \
    python3 perfbench/run.py --self-test \
    | tee "${ARTIFACT_DIR}/perfbench_self_test.txt"
}

if [[ "${AIMS_BENCH_SMOKE:-0}" == "1" ]]; then
  ARTIFACT_DIR="${BUILD_DIR}/bench-artifacts"
  mkdir -p "${ARTIFACT_DIR}"
  BENCH="./${BUILD_DIR}/bench"
  run_step "bench smoke: bench_server (+ live admin endpoint curl)" - \
    admin_smoke
  run_step "bench smoke: bench_observability" \
    "${ARTIFACT_DIR}/bench_observability.json" \
    "${BENCH}/bench_observability" "${ARTIFACT_DIR}"
  run_step "bench smoke: bench_query_cost (asserts ledger overhead < 2%)" \
    "${ARTIFACT_DIR}/bench_query_cost.txt" \
    "${BENCH}/bench_query_cost" "${ARTIFACT_DIR}"
  run_step "bench smoke: bench_block_cache (asserts >= 3x hot p50 win)" \
    "${ARTIFACT_DIR}/bench_block_cache.json" "${BENCH}/bench_block_cache"
  run_step "bench smoke: bench_durability (asserts >= 2x group-commit win)" \
    "${ARTIFACT_DIR}/bench_durability.json" "${BENCH}/bench_durability"
  run_step "bench smoke: bench_rebalance (asserts >= 70% throughput under live migration)" \
    "${ARTIFACT_DIR}/bench_rebalance.json" "${BENCH}/bench_rebalance"
  run_step "bench smoke: bench_tslife (asserts >= 4x segment compression, zero-I/O aggregate hits)" \
    "${ARTIFACT_DIR}/bench_tslife.json" "${BENCH}/bench_tslife"
  run_step "bench smoke: bench_incremental (asserts the recognizer's events equal the golden file)" \
    "${ARTIFACT_DIR}/bench_incremental.txt" "${BENCH}/bench_incremental"
  run_step "bench smoke: perfbench self-test (every workload, answers checked, recognition event parity included)" - \
    perfbench_self_test
  echo "== bench smoke artifacts in ${ARTIFACT_DIR} =="
fi

if [[ "${AIMS_CRASH_SMOKE:-0}" != "0" ]]; then
  mkdir -p "${BUILD_DIR}/bench-artifacts"
  run_step "crash smoke (${AIMS_CRASH_SMOKE} rounds per loop)" - \
    scripts/crash_smoke.sh "${BUILD_DIR}/tests/crash_ingest_helper" \
    "${AIMS_CRASH_SMOKE}" "${BUILD_DIR}/bench-artifacts/crash_smoke.json"
fi

if [[ ${#FAILED_STEPS[@]} -gt 0 ]]; then
  echo "check.sh: ${#FAILED_STEPS[@]} step(s) failed:" >&2
  printf '  - %s\n' "${FAILED_STEPS[@]}" >&2
  exit 1
fi
