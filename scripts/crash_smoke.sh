#!/usr/bin/env bash
# Crash-recovery smoke loop: SIGKILL the ingest helper at armed points
# inside the WAL commit path and the checkpoint steps, over and over
# against ONE durable store,
# recovering on every reopen. After each kill the helper's verify mode
# reopens the store, asserts every acknowledged ingest survived, and
# reports recovery stats; the per-iteration reports are collected into a
# JSON artifact. Any lost ack or unexpected helper exit fails the run.
#
# A second loop does the same against a 2-shard sharded catalog, killing
# the helper MID-TENANT-MIGRATION (inside the target copy's appends) and
# verifying the exactly-one-owner recovery invariant after every kill.
#
# A third loop kills a 2-shard sharded catalog's ingest after its shard
# commit is durable and before it is acknowledged. That commit carries the
# route, so every acknowledged AND every killed ingest must come back
# routed once, under its own tenant, and nothing under any other client.
#
# Usage: scripts/crash_smoke.sh <helper-binary> <iterations> <out-json>
#   helper-binary  build/tests/crash_ingest_helper
#   iterations     how many kill+recover rounds per loop (the ingest loop
#                  cycles payload -> precommit -> postcommit -> segment,
#                  the last one killing mid-raw-segment-seal, then through
#                  the checkpoint steps: rotated -> pagesync -> torndelta
#                  -> deltadurable, each killing an ingest inside the
#                  checkpoint it began, and compact, killing a reopen's
#                  compaction between the base rename and the catalog.log
#                  reset; the
#                  migration loop varies the armed payload-append count;
#                  the catalog loop kills after the shard commit)
#   out-json       where to write the collected recovery stats
set -euo pipefail

HELPER="$1"
ITERATIONS="$2"
OUT_JSON="$3"

STORE="$(mktemp -d "${TMPDIR:-/tmp}/aims_crash_smoke.XXXXXX")"
MSTORE="$(mktemp -d "${TMPDIR:-/tmp}/aims_crash_msmoke.XXXXXX")"
CSTORE="$(mktemp -d "${TMPDIR:-/tmp}/aims_crash_csmoke.XXXXXX")"
trap 'rm -rf "${STORE}" "${MSTORE}" "${CSTORE}"' EXIT

MODES=(payload precommit postcommit segment rotated pagesync torndelta
  deltadurable compact)
RUNS=""

for ((i = 0; i < ITERATIONS; ++i)); do
  mode="${MODES[$((i % ${#MODES[@]}))]}"
  echo "== crash smoke ${i}: kill during ${mode} =="
  status=0
  "${HELPER}" "${STORE}" "${mode}" 1 || status=$?
  # The helper must die by SIGKILL (bash reports 128+9); anything else
  # means the crash hook failed or the harness broke.
  if [[ "${status}" -ne 137 ]]; then
    echo "crash smoke: helper exited ${status}, expected SIGKILL (137)" >&2
    exit 1
  fi
  # The black-box contract: the flight recorder's periodically-persisted
  # bundle must have survived the SIGKILL. (Later rounds rotate it to
  # .prev on reopen; either file proves survival.)
  if [[ ! -f "${STORE}/flightrecord.json" &&
        ! -f "${STORE}/flightrecord.json.prev" ]]; then
    echo "crash smoke: no flight-record bundle survived the SIGKILL" >&2
    exit 1
  fi
  report="$("${HELPER}" "${STORE}" verify 0)"
  echo "   recovered: ${report}"
  RUNS+="${RUNS:+,
    }{\"iteration\": ${i}, \"crash_mode\": \"${mode}\", \"recovery\": ${report}}"
done

# Mid-migration kill loop: vary the armed payload-append count so the
# SIGKILL lands at different points of the migration's copy step.
MRUNS=""
for ((i = 0; i < ITERATIONS; ++i)); do
  # A migration journals no begin record, so count 1 is the copy's first
  # block put. The first session's copy is one WAL group of 7 payload
  # appends (a 2-channel, 120-frame recording: 4 block puts, the catalog
  # entry, 2 segment puts), and its route-move record is the 8th append
  # (measured: a kill at count 8 recovers the session on the source, at
  # count 9 on the target). So 1..8 walks the kill point through the copy
  # and ends on the route move, and every round recovers that session on
  # the source, with any partial copy on the target owned by no route.
  appends=$((1 + i % 8))
  echo "== crash smoke (migration) ${i}: kill after ${appends} payload append(s) =="
  status=0
  "${HELPER}" "${MSTORE}" mcrash "${appends}" || status=$?
  if [[ "${status}" -ne 137 ]]; then
    echo "crash smoke: migration helper exited ${status}, expected SIGKILL (137)" >&2
    exit 1
  fi
  report="$("${HELPER}" "${MSTORE}" mverify 0)"
  echo "   recovered: ${report}"
  MRUNS+="${MRUNS:+,
    }{\"iteration\": ${i}, \"payload_appends\": ${appends}, \"recovery\": ${report}}"
done

# Catalog-ingest kill loop: one acknowledged ingest per round, then one
# killed after its shard commit is durable.
CRUNS=""
for ((i = 0; i < ITERATIONS; ++i)); do
  echo "== crash smoke (catalog) ${i}: kill after the shard commit =="
  status=0
  "${HELPER}" "${CSTORE}" ccrash 1 || status=$?
  if [[ "${status}" -ne 137 ]]; then
    echo "crash smoke: catalog helper exited ${status}, expected SIGKILL (137)" >&2
    exit 1
  fi
  report="$("${HELPER}" "${CSTORE}" cverify 0)"
  echo "   recovered: ${report}"
  CRUNS+="${CRUNS:+,
    }{\"iteration\": ${i}, \"recovery\": ${report}}"
done

mkdir -p "$(dirname "${OUT_JSON}")"
# Preserve the last surviving bundles as artifacts next to the stats.
for bundle in "${STORE}/flightrecord.json" "${STORE}/flightrecord.json.prev"; do
  [[ -f "${bundle}" ]] &&
    cp "${bundle}" "$(dirname "${OUT_JSON}")/crash_$(basename "${bundle}")"
done
if [[ -f "${MSTORE}/flightrecord.json" ]]; then
  cp "${MSTORE}/flightrecord.json" \
    "$(dirname "${OUT_JSON}")/crash_migration_flightrecord.json"
fi
cat > "${OUT_JSON}" <<EOF
{
  "smoke": "crash_recovery",
  "iterations": ${ITERATIONS},
  "runs": [
    ${RUNS}
  ],
  "migration_runs": [
    ${MRUNS}
  ],
  "catalog_runs": [
    ${CRUNS}
  ]
}
EOF
echo "== crash smoke: ${ITERATIONS} ingest/checkpoint + ${ITERATIONS} mid-migration + ${ITERATIONS} catalog-ingest kill+recover rounds, zero acked ingests lost, one owner per session, killed catalog ingests kept under their tenant =="
echo "== flight-record bundle survived every SIGKILL =="
echo "== recovery stats in ${OUT_JSON} =="
