#!/usr/bin/env bash
# Shard-smoke for distributed sweeps: the bit-identical merge contract
# end to end, using nothing but the shipped binaries.
#
#   1. run a 20-cell threshold grid in a single process (the reference)
#   2. run the same grid as 3 shards and -merge them; `cmp` against the
#      reference — must be byte-identical
#   3. serve the grid through xqd with a 1s lease TTL, `kill -9` a
#      work-stealing worker once GET /grids/{id} shows it holding leases
#      on the unfinished grid, and let a second worker finish;
#      assert the dead worker's leases were reclaimed (the second
#      worker logs re-leased cells) and the fetched merged bytes still
#      `cmp` equal to the reference
set -euo pipefail
cd "$(dirname "$0")/.."

GRID_FLAGS="-grid threshold -d 5,7 -p 0.002,0.004,0.006,0.008,0.01,0.014,0.02,0.026,0.03,0.04 -trials 2048 -seed 42"
WORK=$(mktemp -d)
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/xqsweep" ./cmd/xqsweep
go build -o "$WORK/xqd" ./cmd/xqd

echo "== single-process reference"
# shellcheck disable=SC2086  # GRID_FLAGS is a flag list on purpose
"$WORK/xqsweep" $GRID_FLAGS -jsonl "$WORK/full.jsonl" 2>/dev/null

echo "== 3 shards + merge"
for i in 0 1 2; do
  # shellcheck disable=SC2086
  "$WORK/xqsweep" $GRID_FLAGS -shard "$i/3" -jsonl "$WORK/s$i.jsonl" 2>/dev/null
done
"$WORK/xqsweep" -merge -jsonl "$WORK/merged.jsonl" "$WORK/s0.jsonl" "$WORK/s1.jsonl" "$WORK/s2.jsonl"
cmp "$WORK/full.jsonl" "$WORK/merged.jsonl" || {
  echo "merged shards differ from the single-process run" >&2
  exit 1
}
echo "3-shard merge is bit-identical ($(wc -c <"$WORK/merged.jsonl") bytes)"

echo "== work-stealing: kill -9 a worker mid-grid"
"$WORK/xqd" -addr 127.0.0.1:0 -data "$WORK/xqd-data" -lease-ttl 1s >"$WORK/xqd.log" 2>&1 &
PID=$!
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^xqd listening on \([^ ]*\).*/\1/p' "$WORK/xqd.log")
  [ -n "$addr" ] && { URL="http://$addr"; break; }
  sleep 0.1
done
[ -n "${URL:-}" ] || { echo "daemon never announced its address" >&2; cat "$WORK/xqd.log" >&2; exit 1; }

# shellcheck disable=SC2086
ID=$("$WORK/xqsweep" $GRID_FLAGS -submit "$URL" 2>/dev/null)
[ -n "$ID" ] || { echo "grid submission returned no id" >&2; exit 1; }

# The doomed worker leases the whole grid in one batch, so until its
# last push every unfinished cell is leased to it. Poll the grid and
# kill the worker as soon as it holds leases on an unfinished grid: the
# kill then leaves live leases for the finisher to reclaim however fast
# the cells run, and no fixed sleep has to guess their speed.
"$WORK/xqsweep" -worker "$URL" -grid-id "$ID" -worker-name doomed -lease-batch 20 >"$WORK/w1.log" 2>&1 &
W1=$!
grid_status() { curl -sf "$URL/grids/$ID"; }
field() { sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"; }
killed=""
for _ in $(seq 1 2000); do
  st=$(grid_status) || { echo "GET /grids/$ID failed" >&2; exit 1; }
  if [ "$(echo "$st" | field leased)" -gt 0 ] && [ "$(echo "$st" | field complete)" -lt "$(echo "$st" | field cells)" ]; then
    kill -9 "$W1" 2>/dev/null || true
    killed=1
    break
  fi
  kill -0 "$W1" 2>/dev/null || break # the worker exited on its own
  sleep 0.005
done
wait "$W1" 2>/dev/null || true
[ -n "$killed" ] || {
  echo "never saw the doomed worker hold a lease on an unfinished grid; last status: $st" >&2
  cat "$WORK/w1.log" >&2
  exit 1
}
st=$(grid_status)
complete=$(echo "$st" | field complete)
cells=$(echo "$st" | field cells)
if [ "$complete" -ge "$cells" ]; then
  echo "the kill landed after the grid completed ($complete/$cells cells): nothing is left to reclaim" >&2
  exit 1
fi
echo "killed worker 'doomed' mid-grid: $complete/$cells cells complete, $(echo "$st" | field leased) still leased to it"

"$WORK/xqsweep" -worker "$URL" -grid-id "$ID" -worker-name finisher >"$WORK/w2.log" 2>&1
grep -q "re-leased (attempt" "$WORK/w2.log" || {
  echo "the dead worker's leases were never reclaimed" >&2
  echo "--- w1.log"; cat "$WORK/w1.log"
  echo "--- w2.log"; cat "$WORK/w2.log"
  exit 1
} >&2
echo "dead worker's cells re-leased: $(grep -c 're-leased (attempt' "$WORK/w2.log") reclaimed"

"$WORK/xqsweep" -fetch "$URL" -grid-id "$ID" -jsonl "$WORK/fetched.jsonl" 2>/dev/null
cmp "$WORK/full.jsonl" "$WORK/fetched.jsonl" || {
  echo "work-stealing result differs from the single-process run" >&2
  exit 1
}
echo "fetched grid is bit-identical despite the killed worker"

kill -TERM "$PID" && wait "$PID" 2>/dev/null || true
PID=""
echo "shard smoke OK"
