#!/usr/bin/env bash
# Smoke test for the telemetry endpoints: boot the loopback cluster with
# -metrics-addr, scrape /metrics while jobs run, and assert the core
# series are present. Fails the build if the exposition goes dark.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="127.0.0.1:19642"
OUT="$(mktemp)"
SCRAPE="$(mktemp)"
trap 'kill "$PID" 2>/dev/null || true; rm -f "$OUT" "$SCRAPE" "$SCRAPE.status" "$SCRAPE.trace"' EXIT

go build -o /tmp/tetris-cluster-smoke ./cmd/tetris-cluster
/tmp/tetris-cluster-smoke -nodes 2 -jobs 2 -compression 50 -metrics-addr "$ADDR" >"$OUT" 2>&1 &
PID=$!

# Wait for the exposition to come up, then for placements to appear.
for i in $(seq 1 50); do
  if curl -sf "http://$ADDR/metrics" >"$SCRAPE" 2>/dev/null &&
    grep -q '^tetris_rm_placements_total{shard="0"} [1-9]' "$SCRAPE"; then
    break
  fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "cluster exited before metrics were scraped:" >&2
    cat "$OUT" >&2
    exit 1
  fi
  sleep 0.2
done

fail=0
for series in \
  'tetris_rm_placements_total{shard="0"} [1-9]' \
  'tetris_rm_nodes_live{shard="0"} 2' \
  'tetris_nm_heartbeat_rtt_seconds_count [1-9]' \
  'tetris_rm_schedule_round_seconds_count{shard="0"} [1-9]' \
  'tetris_rm_rounds_total{shard="0",cause="submit"} [1-9]' \
  'tetris_rm_sched_stage_scans_total{shard="0",result="scanned"} [1-9]' \
  'tetris_rm_sched_machine_prunes_total{shard="0"} [0-9]' \
  'tetris_rm_sched_carried_envelopes_total{shard="0"} [0-9]' \
  'tetris_rm_batch_groups_offloaded_total{shard="0"} [0-9]' \
  'tetris_am_jobs_submitted_total [1-9]'; do
  if ! grep -q "^$series" "$SCRAPE"; then
    echo "MISSING: $series" >&2
    fail=1
  fi
done

# Fetch to files: grep -q on a pipe would close it early and, under
# pipefail, turn curl's resulting write error into a false failure.
curl -sf "http://$ADDR/debug/status" >"$SCRAPE.status" || true
grep -q '"nodes": 2' "$SCRAPE.status" || { echo "MISSING: /debug/status nodes" >&2; fail=1; }
curl -sf "http://$ADDR/debug/trace" >"$SCRAPE.trace" || true
grep -q '"outcome": "placed"' "$SCRAPE.trace" || { echo "MISSING: /debug/trace placed decision" >&2; fail=1; }

if [ "$fail" -ne 0 ]; then
  echo "--- scrape ---" >&2
  cat "$SCRAPE" >&2
  exit 1
fi

wait "$PID"
echo "metrics smoke OK"
