#!/usr/bin/env bash
# Crash-recovery smoke for the snapserve daemon: start with a WAL,
# ingest over HTTP, SIGKILL mid-ingest, restart from the same
# directory, and assert the daemon comes back with the acked updates
# and monotone epochs — then SIGTERM and assert a clean drain.
#
# Run from the repo root: scripts/crash_smoke.sh
set -euo pipefail

ADDR=127.0.0.1:18419
URL="http://$ADDR"
DIR="$(mktemp -d)"
BIN="$DIR/snapserve"
LOG1="$DIR/run1.log"
LOG2="$DIR/run2.log"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

go build -o "$BIN" ./cmd/snapserve

wait_up() {
  for _ in $(seq 1 100); do
    if curl -fsS "$URL/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: daemon never came up"; cat "$1"; exit 1
}

batch() { # batch <t>: a 32-update insert batch with time label t
  local t=$1 out="[" i
  for i in $(seq 0 31); do
    [ "$i" -gt 0 ] && out+=","
    out+="{\"u\":$(( (i * 7 + t) % 512 )),\"v\":$(( (i * 13 + t + 1) % 512 )),\"t\":$t}"
  done
  echo "$out]"
}

# --- Run 1: fresh WAL, ingest, kill -9 mid-stream -------------------
"$BIN" -addr "$ADDR" -scale 9 -wal-dir "$DIR/wal" \
  -refresh-dirty 64 -refresh-age 5ms >"$LOG1" 2>&1 &
PID=$!
wait_up "$LOG1"

EPOCH1=0
for t in $(seq 1 30); do
  ep=$(curl -fsS -X POST -d "$(batch "$t")" "$URL/ingest" | jq .epoch)
  [ "$ep" -ge "$EPOCH1" ] || { echo "FAIL: ack epoch regressed $EPOCH1 -> $ep"; exit 1; }
  EPOCH1=$ep
done
echo "run 1: 30 acked batches, last ack epoch $EPOCH1"

# Kill without ceremony while more ingest is in flight (the raced
# request may die with the daemon; that's the point).
curl -fsS -X POST -d "$(batch 99)" "$URL/ingest" >/dev/null 2>&1 &
kill -9 "$PID"
wait "$PID" 2>/dev/null || true

# --- Run 2: restart from the WAL ------------------------------------
"$BIN" -addr "$ADDR" -scale 9 -wal-dir "$DIR/wal" \
  -refresh-dirty 64 -refresh-age 5ms >"$LOG2" 2>&1 &
PID=$!
wait_up "$LOG2"

grep -q "recovered LSN" "$LOG2" || { echo "FAIL: no recovery banner"; cat "$LOG2"; exit 1; }

# Acked writes survived: every batch carried t >= 1, so the arc count
# must be at least the bootstrap plus the acked inserts.
STATS=$(curl -fsS "$URL/stats")
echo "run 2 stats: $STATS"

# Epochs must continue above the pre-kill acks.
EPOCH2=$(curl -fsS -X POST -d "$(batch 50)" "$URL/ingest" | jq .epoch)
[ "$EPOCH2" -gt "$EPOCH1" ] || { echo "FAIL: epoch not monotone across crash: $EPOCH1 then $EPOCH2"; exit 1; }
echo "run 2: post-recovery ack epoch $EPOCH2 > pre-crash $EPOCH1"

# Read-your-writes handshake works against the recovered daemon.
curl -fsS "$URL/query/bfs?src=1&minEpoch=$EPOCH2" >/dev/null

# --- Clean shutdown --------------------------------------------------
kill -TERM "$PID"
for _ in $(seq 1 100); do
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$PID" 2>/dev/null; then echo "FAIL: daemon ignored SIGTERM"; exit 1; fi
wait "$PID" || { echo "FAIL: non-zero exit on SIGTERM"; cat "$LOG2"; exit 1; }
grep -q "clean shutdown" "$LOG2" || { echo "FAIL: no clean-shutdown banner"; cat "$LOG2"; exit 1; }

echo "PASS: crash recovery + graceful shutdown smoke"
