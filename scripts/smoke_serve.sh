#!/usr/bin/env bash
# Smoke test for persistent serving: save a small deployment, boot
# flix_serve from it (twice — the second boot must reuse the files and
# skip the index build), drive PING / DESCENDANTS / CONNECTED / METRICS
# over the wire, check that a repeated disk EVALUATE is an answer-cache
# hit, that an unknown tag answers exactly DONE 0 and METRICS is well
# formed on the disk, memory and coordinator deployments, that a BATCH
# with a malformed sub answers its subs in index order, and that a
# mangled store (or a zero-entry --coord-cache) dies with a one-line
# error instead of a backtrace. Then hot reload: INGEST and RELOAD
# against a live in-memory server under concurrent query load (zero
# dropped connections, post-reload answers byte-identical to a fresh
# server), with the snapshot epoch / pin / reload-duration metrics
# and the GC gauges asserted on METRICS, and a nonzero count of staged
# link rows on STATS. Then the sharded path: build a 2-shard
# deployment, boot both shard servers plus a coordinator, query through
# the coordinator (including a coordinator-wide RELOAD sweep), check
# that a manifest without a portal closure is refused at boot, and
# verify that killing a shard degrades answers to PARTIAL — and RELOAD
# to a clean ERR — instead of failing them. The disk server after its
# RELOAD and the coordinator after its sweep stop on SIGINT, which must
# close the serving backend and exit 0.
#
# Uses bash's /dev/tcp so it needs no netcat. Run from the repo root:
#
#   scripts/smoke_serve.sh [path/to/flix_serve.exe]

set -u

BIN=${1:-_build/default/bin/flix_serve.exe}
PORT=${SMOKE_PORT:-7461}
DIR=$(mktemp -d)
SRV_PID=
EXTRA_PIDS=
EXTRA_DIR=

fail() {
  echo "smoke_serve: FAIL: $*" >&2
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null
  for p in $EXTRA_PIDS; do kill "$p" 2>/dev/null; done
  rm -rf "$DIR"
  [ -n "$EXTRA_DIR" ] && rm -rf "$EXTRA_DIR"
  exit 1
}

# Stop the server with SIGINT, flix_serve's graceful shutdown: it must
# close the serving backend and exit 0.
stop_gracefully() { # LOG
  kill -INT "$SRV_PID" || fail "server already gone before SIGINT"
  wait "$SRV_PID"
  local status=$?
  SRV_PID=
  [ "$status" -eq 0 ] || { cat "$1" >&2; fail "SIGINT shutdown exited $status"; }
  grep -q "shutting down" "$1" || fail "no shutdown line in $1"
}

# An unknown tag matches no element: EVALUATE and DESCENDANTS answer
# exactly DONE 0 on every deployment.
unknown_tags() { # DEPLOYMENT
  ask "EVALUATE article nosuchtag 5" | grep -qx "DONE 0" || fail "$1 EVALUATE with an unknown target tag"
  ask "DESCENDANTS dblp_0000 - nosuchtag 5" | grep -qx "DONE 0" \
    || fail "$1 DESCENDANTS with an unknown tag"
}

# The METRICS exposition is well formed: every sample line parses as
# name[{labels}] number, each histogram's buckets never decrease in le
# order, and its +Inf bucket equals its _count.
metrics_well_formed() { # DEPLOYMENT
  local out
  out=$(ask METRICS | tail -n +2 | awk '
    /^#/ { next }
    {
      if ($0 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+]?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$/) {
        print "unparsable line: " $0; next
      }
      series = $1; value = $2 + 0; name = series; labels = ""
      brace = index(series, "{")
      if (brace > 0) {
        name = substr(series, 1, brace - 1)
        labels = substr(series, brace + 1, length(series) - brace - 1)
      }
      if (name ~ /_bucket$/) {
        le = labels
        sub(/^.*le="/, "", le); sub(/".*$/, "", le)
        gsub(/,?le="[^"]*"/, "", labels); sub(/^,/, "", labels)
        key = substr(name, 1, length(name) - 7) "{" labels "}"
        if ((key in last) && value < last[key]) print "bucket decreases: " $0
        last[key] = value
        if (le == "+Inf") inf[key] = value
      } else if (name ~ /_count$/) {
        count[substr(name, 1, length(name) - 6) "{" labels "}"] = value
      }
    }
    END {
      for (key in last) {
        if (!(key in inf)) print "no +Inf bucket: " key
        else if (!(key in count) || count[key] != inf[key]) print "+Inf bucket differs from _count: " key
      }
    }')
  [ -z "$out" ] || { echo "$out" >&2; fail "$1 METRICS malformed"; }
}

wait_port() {
  for _ in $(seq 1 100); do
    if (exec 9<>"/dev/tcp/127.0.0.1/$PORT") 2>/dev/null; then
      exec 9<&- 9>&-
      return 0
    fi
    sleep 0.2
  done
  return 1
}

# One request line in, one response out (reads until DONE/DIST/PONG/ERR
# or, for METRICS, the announced number of lines).
ask() {
  local req=$1
  exec 8<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect for $req"
  printf '%s\n' "$req" >&8
  local first
  IFS= read -r -t 10 first <&8 || fail "no response to $req"
  echo "$first"
  case $first in
    LINES\ *)
      local n=${first#LINES }
      for _ in $(seq 1 "$n"); do
        IFS= read -r -t 10 line <&8 || fail "short LINES body for $req"
        echo "$line"
      done
      ;;
    ITEM\ *)
      # Streams end with a DONE/TIMEOUT/PARTIAL trailer; a sharded
      # deployment with a dead shard answers PARTIAL.
      while IFS= read -r -t 10 line <&8; do
        echo "$line"
        case $line in DONE\ *|TIMEOUT\ *|PARTIAL\ *) break ;; esac
      done
      ;;
  esac
  exec 8<&- 8>&-
}

echo "== first boot: build and save the deployment =="
"$BIN" --docs 40 --index-dir "$DIR" --port "$PORT" >"$DIR/boot1.log" 2>&1 &
SRV_PID=$!
wait_port || { cat "$DIR/boot1.log" >&2; fail "server did not come up"; }

[ "$(ask PING)" = "PONG" ] || fail "PING"
# A server that answers DONE 0 would pass a ^DONE check: want items.
ask "DESCENDANTS dblp_0000 - author 5" | grep -q "^ITEM " || fail "DESCENDANTS"
ask "CONNECTED 0 3" | grep -q "^DIST " || fail "CONNECTED"
# EVALUATE reads its starts from the tag directory in the label store:
# an empty answer means the directory lost its nodes.
ask "EVALUATE article author 5" | grep -q "^ITEM " || fail "disk EVALUATE at first boot"
ask METRICS | grep -q "^flix_pager_pool_hits_total" || fail "pool metrics missing"
unknown_tags disk
metrics_well_formed disk

kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null
SRV_PID=
# A deployment is exactly two files: the label store and the catalog.
files=$(cd "$DIR" && ls -1 | grep -v '\.log$' | tr '\n' ' ')
[ "$files" = "index.catalog index.labels " ] || fail "deployment files are '$files'"
for f in index.labels index.catalog; do
  [ -s "$DIR/$f" ] || fail "deployment file $f empty"
done

echo "== second boot: reuse the saved deployment =="
"$BIN" --index-dir "$DIR" --port "$PORT" >"$DIR/boot2.log" 2>&1 &
SRV_PID=$!
wait_port || { cat "$DIR/boot2.log" >&2; fail "reused server did not come up"; }
grep -q "opening deployment" "$DIR/boot2.log" || fail "second boot rebuilt the index"

[ "$(ask PING)" = "PONG" ] || fail "PING after reuse"
ask "DESCENDANTS dblp_0003 - author 5" | grep -q "^DONE " || fail "DESCENDANTS after reuse"
# The disk backend answers EVALUATE through the server's one answer
# cache: the repeat must be a hit.
ask "EVALUATE article author 5" | grep -q "^ITEM " || fail "disk EVALUATE"
ask "EVALUATE article author 5" | grep -q "^ITEM " || fail "repeat disk EVALUATE"
hits=$(ask METRICS | awk '/^flix_eval_cache_hits_total / { print $2 }')
[ "${hits:-0}" -ge 1 ] || fail "repeated disk EVALUATE missed the answer cache (hits=${hits:-0})"
echo "disk answer cache hits=$hits"
# RELOAD re-opens the deployment and swaps it in; the retired pager is
# closed once its last pinned request drains.
[ "$(ask RELOAD)" = "EPOCH 2" ] || fail "RELOAD on the disk deployment"
ask "DESCENDANTS dblp_0003 - author 5" | grep -q "^DONE " || fail "DESCENDANTS after disk reload"
ask "EVALUATE article author 5" | grep -q "^ITEM " || fail "disk EVALUATE after reload"

stop_gracefully "$DIR/boot2.log"

echo "== mangled store: one-line error, nonzero exit =="
echo garbage >"$DIR/index.catalog"
out=$("$BIN" --index-dir "$DIR" --port "$PORT" 2>&1)
status=$?
[ "$status" -ne 0 ] || fail "mangled store accepted (exit 0)"
echo "$out" | grep -q "corrupt index store" || fail "no diagnostic for mangled store"
echo "$out" | grep -q "Raised at\|Fatal error" && fail "backtrace leaked for mangled store"

out=$("$BIN" --coord-cache 0 --docs 40 --port "$PORT" 2>&1)
status=$?
[ "$status" -eq 1 ] || fail "--coord-cache 0 accepted (exit $status)"
echo "$out" | grep -q "needs at least 1 entry" || fail "no diagnostic for --coord-cache 0"

rm -rf "$DIR"

echo "== hot reload: INGEST and RELOAD under concurrent query load =="
DIR=$(mktemp -d)
"$BIN" --docs 40 --port "$PORT" >"$DIR/mem.log" 2>&1 &
SRV_PID=$!
wait_port || { cat "$DIR/mem.log" >&2; fail "in-memory server did not come up"; }

[ "$(ask EPOCH)" = "EPOCH 1" ] || fail "EPOCH before any swap"
ask "DESCENDANTS dblp_0000 - author 5" | grep -q "^ITEM " || fail "memory DESCENDANTS"
unknown_tags memory

# A batch's subs answer in index order, a malformed one in its own slot:
# each of these subs answers one line after its SUB header.
exec 8<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect for BATCH"
printf 'BATCH 3\nCONNECTED 0 3\nFROBNICATE\nCONNECTED 0 0\n' >&8
headers=
for _ in 1 2 3 4 5 6; do
  IFS= read -r -t 10 line <&8 || fail "short BATCH answer"
  case $line in SUB\ *) headers="$headers${headers:+, }$line" ;; esac
done
exec 8<&- 8>&-
[ "$headers" = "SUB 0, SUB 1, SUB 2" ] || fail "BATCH sub headers arrived as: $headers"
# STATS counts the PPO link rows staged for the memory PEE.
pairs=$(ask STATS | sed -n 's/^link rows: \([0-9]*\) pairs.*/\1/p')
[ "${pairs:-0}" -gt 0 ] || fail "STATS has no nonzero 'link rows:' line (pairs=${pairs:-none})"
m=$(ask METRICS)
echo "$m" | grep -q "^flix_gc_heap_words [0-9]" || fail "flix_gc_heap_words gauge missing"
echo "$m" | grep -q "^flix_snapshot_epoch 1$" || fail "flix_snapshot_epoch gauge missing"
echo "$m" | grep -q "^flix_snapshot_pinned{epoch=" || fail "flix_snapshot_pinned gauge missing"
echo "$m" | grep -q "^flix_reload_duration_seconds_bucket" || fail "reload histogram missing"

# Concurrent load: every request must complete with DONE while the
# swaps happen — a dropped connection or degraded answer is a failure.
LOAD_ERR="$DIR/load_err"
query_load() { # N_REQUESTS
  local i line done_
  for i in $(seq 1 "$1"); do
    exec 7<>"/dev/tcp/127.0.0.1/$PORT" \
      || { echo "connect failed at request $i" >>"$LOAD_ERR"; continue; }
    printf 'DESCENDANTS dblp_%04d - author 5\n' $(( i % 40 )) >&7
    done_=
    line=
    while IFS= read -r -t 10 line <&7; do
      case $line in
        DONE\ *) done_=1; break ;;
        TIMEOUT\ *|PARTIAL\ *|ERR\ *|BUSY) break ;;
      esac
    done
    [ -n "$done_" ] || echo "request $i failed: ${line:-connection dropped}" >>"$LOAD_ERR"
    exec 7<&- 7>&-
  done
}
query_load 30 & LOAD1=$!
query_load 30 & LOAD2=$!
sleep 0.2

# INGEST one framed document mid-load.
exec 8<>"/dev/tcp/127.0.0.1/$PORT" || fail "connect for INGEST"
printf 'INGEST 1\nDOC smoke_doc 1\n<doc><sec><author>x</author></sec></doc>\n' >&8
IFS= read -r -t 30 line <&8 || fail "no response to INGEST"
exec 8<&- 8>&-
[ "$line" = "EPOCH 2" ] || fail "INGEST answered '$line'"
ask "DESCENDANTS smoke_doc - author 5" | grep -q "^DONE " || fail "ingested document not served"
# EVALUATE reads its starts from the per-tag index of the swapped-in
# collection: the ingested document brings the only sec element.
ask "EVALUATE sec author 5" | grep -q "^ITEM " || fail "EVALUATE missed the ingested start"
ask "EVALUATE nosuchtag author 5" | grep -qx "DONE 0" || fail "EVALUATE with an unknown start tag"

# RELOAD rebuilds from the original source, dropping the ingested doc.
[ "$(ask RELOAD)" = "EPOCH 3" ] || fail "RELOAD on the in-memory server"
ask "EVALUATE sec author 5" | grep -qx "DONE 0" || fail "EVALUATE still sees the dropped document"
wait "$LOAD1" "$LOAD2"
[ ! -s "$LOAD_ERR" ] || { cat "$LOAD_ERR" >&2; fail "requests dropped during hot reload"; }
m=$(ask METRICS)
echo "$m" | grep -q "^flix_snapshot_epoch 3$" || fail "epoch gauge did not follow the swaps"
count=$(echo "$m" | awk '/^flix_reload_duration_seconds_count / { print $2 }')
[ "${count:-0}" -ge 2 ] || fail "reload histogram did not count the swaps (count=${count:-0})"
metrics_well_formed memory

# Post-reload answers are byte-identical to a freshly started server.
FPORT=$((PORT + 3))
"$BIN" --docs 40 --port "$FPORT" >"$DIR/fresh.log" 2>&1 &
FRESH_PID=$!
EXTRA_PIDS=$FRESH_PID
PORT=$FPORT wait_port || { cat "$DIR/fresh.log" >&2; fail "fresh server did not come up"; }
for q in "DESCENDANTS dblp_0003 - author 5" "EVALUATE article author 5" "CONNECTED 0 3"; do
  [ "$(ask "$q")" = "$(PORT=$FPORT ask "$q")" ] \
    || fail "post-reload answer diverges from a fresh server for: $q"
done
kill "$FRESH_PID" 2>/dev/null && wait "$FRESH_PID" 2>/dev/null
EXTRA_PIDS=

kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null
SRV_PID=
rm -rf "$DIR"

echo "== sharded deployment: build 2 shards + manifest =="
EXTRA_DIR=$(mktemp -d)
SPORT0=$((PORT + 1))
SPORT1=$((PORT + 2))
"$BIN" --build-shards 2 --docs 40 --index-dir "$EXTRA_DIR" >"$EXTRA_DIR/build.log" 2>&1 \
  || { cat "$EXTRA_DIR/build.log" >&2; fail "shard build failed"; }
[ -s "$EXTRA_DIR/manifest.shards" ] || fail "manifest.shards missing"
for s in shard0 shard1; do
  [ -s "$EXTRA_DIR/$s/index.catalog" ] || fail "$s deployment missing"
done

echo "== boot shard servers and the coordinator =="
SAVE_PORT=$PORT
"$BIN" --index-dir "$EXTRA_DIR/shard0" --port "$SPORT0" >"$EXTRA_DIR/s0.log" 2>&1 &
S0_PID=$!
"$BIN" --index-dir "$EXTRA_DIR/shard1" --port "$SPORT1" >"$EXTRA_DIR/s1.log" 2>&1 &
S1_PID=$!
EXTRA_PIDS="$S0_PID $S1_PID"
PORT=$SPORT0 wait_port || { cat "$EXTRA_DIR/s0.log" >&2; fail "shard 0 did not come up"; }
PORT=$SPORT1 wait_port || { cat "$EXTRA_DIR/s1.log" >&2; fail "shard 1 did not come up"; }
# Shard 0 by host name: resolved once at boot, and every query, the
# RELOAD sweep and the dead-shard checks below run through it.
"$BIN" --coordinator --index-dir "$EXTRA_DIR" --coord-cache 64 \
  --shard "localhost:$SPORT0" --shard "127.0.0.1:$SPORT1" \
  --port "$PORT" >"$EXTRA_DIR/coord.log" 2>&1 &
SRV_PID=$!
wait_port || { cat "$EXTRA_DIR/coord.log" >&2; fail "coordinator did not come up"; }

[ "$(ask PING)" = "PONG" ] || fail "coordinator PING"
ask "EVALUATE article author 5" | grep -q "^DONE " || fail "coordinator EVALUATE"
ask "DESCENDANTS dblp_0000 - author 5" | grep -q "^DONE " || fail "coordinator DESCENDANTS"
ask "CONNECTED 0 3" | grep -q "^DIST " || fail "coordinator CONNECTED"
unknown_tags coordinator
ask METRICS | grep -q "^flix_shard_errors_total" || fail "shard error metrics missing"
ask METRICS | grep -q "^flix_shard_fanout_latency_ms_bucket" || fail "fanout histogram missing"

echo "== batched probes: round trips stay below sub-request count =="
metrics=$(ask METRICS)
rpcs=$(echo "$metrics" | awk '/^flix_shard_probe_rpcs_total\{/ { sum += $2 } END { print sum + 0 }')
subs=$(echo "$metrics" | awk '/^flix_shard_probe_subs_total\{/ { sum += $2 } END { print sum + 0 }')
[ "$subs" -gt 0 ] || fail "no probe sub-requests recorded (subs=$subs)"
[ "$rpcs" -lt "$subs" ] || fail "probe RPCs not batched (rpcs=$rpcs subs=$subs)"
echo "probe rpcs=$rpcs subs=$subs"
echo "$metrics" | grep -q "^flix_shard_probe_batch_size_bucket" || fail "batch-size histogram missing"
metrics_well_formed coordinator

echo "== warm coordinator requests: leg sets, names from the plan, exit streams =="
# CONNECTED 0 3 was asked above, so its leg set is cached: a repeat
# sends nothing. DESCENDANTS by name resolves the name from the plan and
# sends only the start's own stream, one round trip.
rpcs_total() {
  ask METRICS | awk '/^flix_shard_probe_rpcs_total\{/ { sum += $2 } END { print sum + 0 }'
}
before=$(rpcs_total)
ask "CONNECTED 0 3" | grep -q "^DIST " || fail "repeated coordinator CONNECTED"
after=$(rpcs_total)
[ "$after" -eq "$before" ] || fail "warm CONNECTED 0 3 made $((after - before)) shard round trips, want 0"
before=$after
ask "DESCENDANTS dblp_0000 - author 5" | grep -q "^DONE " || fail "repeated coordinator DESCENDANTS"
after=$(rpcs_total)
[ "$((after - before))" -eq 1 ] \
  || fail "warm DESCENDANTS dblp_0000 made $((after - before)) shard round trips, want 1"
# Portal streams are remembered as packed runs and replayed through
# cursors. dblp_0039's articles reach across shards (dblp_0000 reaches
# no portal at 40 documents): its cold answer fetches portal streams,
# and a repeat answers the cold bytes with only the start's own stream.
before=$(rpcs_total)
cold=$(ask "DESCENDANTS dblp_0039 - article 100")
after=$(rpcs_total)
echo "$cold" | grep -q "^ITEM " || fail "coordinator DESCENDANTS dblp_0039 - article 100 answered no item"
[ "$((after - before))" -ge 2 ] \
  || fail "cold DESCENDANTS dblp_0039 - article 100 opened no portal stream"
before=$after
warm=$(ask "DESCENDANTS dblp_0039 - article 100")
after=$(rpcs_total)
[ "$warm" = "$cold" ] || fail "warm DESCENDANTS dblp_0039 - article 100 differs from its cold answer"
[ "$((after - before))" -eq 1 ] \
  || fail "warm DESCENDANTS dblp_0039 - article 100 made $((after - before)) shard round trips, want 1"
# ANCESTORS remembers its exit portals' streams: on the first node
# whose cold answer opened exit portals (more than the one round trip of
# its own stream and leg probes), a repeat sends only its own stream.
anc_node=
for n in $(seq 0 60); do
  before=$(rpcs_total)
  ask "ANCESTORS $n - 100" | grep -q "^DONE " || fail "coordinator ANCESTORS $n"
  after=$(rpcs_total)
  if [ "$((after - before))" -ge 2 ]; then anc_node=$n; break; fi
done
[ -n "$anc_node" ] || fail "no coordinator ANCESTORS on nodes 0-60 opened an exit portal"
before=$(rpcs_total)
ask "ANCESTORS $anc_node - 100" | grep -q "^DONE " || fail "repeated coordinator ANCESTORS"
after=$(rpcs_total)
[ "$((after - before))" -eq 1 ] \
  || fail "warm ANCESTORS $anc_node made $((after - before)) shard round trips, want 1"

echo "== repeated EVALUATE lands in the front's answer cache =="
ask "EVALUATE article author 5" | grep -q "^DONE " || fail "repeat EVALUATE"
hits=$(ask METRICS | awk '/^flix_eval_cache_hits_total / { print $2 }')
[ "${hits:-0}" -gt 0 ] || fail "coordinator answer cache never hit (hits=${hits:-0})"
echo "coordinator answer cache hits=$hits"

echo "== portal closure: nearest-first enumeration answers portal distances =="
grep -q "portal closure:" "$EXTRA_DIR/coord.log" || fail "coordinator boot log says nothing about the closure"
lookups=$(ask METRICS | awk '/^flix_coord_closure_lookups_total / { print $2 }')
[ "${lookups:-0}" -gt 0 ] || fail "closure never consulted (lookups=${lookups:-0})"
ask METRICS | grep -q "^flix_closure_label_entries" || fail "closure label gauge missing"
echo "closure lookups=$lookups"

echo "== coordinator RELOAD: shard-by-shard sweep, single swap =="
# After the probe/cache counters above: the swap replaces the
# coordinator (fresh connections, counters reset), so it must not run
# before they are asserted.
[ "$(ask RELOAD)" = "EPOCH 2" ] || fail "coordinator RELOAD"
ask "EVALUATE article author 5" | grep -q "^DONE " || fail "EVALUATE after coordinator reload"
ask METRICS | grep -q "^flix_snapshot_epoch 2$" || fail "coordinator epoch gauge after reload"

echo "== a v1 manifest is refused at boot =="
# The same manifest under the pre-closure FXSHARDMAN1 magic: the
# coordinator must exit nonzero and say how to rebuild, not fall back.
mkdir "$EXTRA_DIR/v1"
cp "$EXTRA_DIR/manifest.shards" "$EXTRA_DIR/v1/manifest.shards"
printf 'FXSHARDMAN1' | dd of="$EXTRA_DIR/v1/manifest.shards" bs=1 count=11 conv=notrunc 2>/dev/null
out=$("$BIN" --coordinator --index-dir "$EXTRA_DIR/v1" \
  --shard "127.0.0.1:$SPORT0" --shard "127.0.0.1:$SPORT1" --port "$((PORT + 4))" 2>&1)
status=$?
[ "$status" -ne 0 ] || fail "v1 manifest accepted (exit 0)"
echo "$out" | grep -q -- "--build-shards" || fail "v1 refusal does not say to rebuild with --build-shards"
echo "$out" | grep -q "Raised at\|Fatal error" && fail "backtrace leaked for a v1 manifest"

echo "== kill one shard: answers degrade to PARTIAL =="
kill "$S1_PID" && wait "$S1_PID" 2>/dev/null
EXTRA_PIDS=$S0_PID
# The query warmed after the reload replays from the front's answer
# cache even with the shard down; a cold query must degrade to PARTIAL.
ask "EVALUATE article author 5" | grep -q "^DONE " || fail "cached EVALUATE should survive the dead shard"
ask "EVALUATE inproceedings cite 5" | grep -q "^PARTIAL " || fail "dead shard should answer PARTIAL"
[ "$(ask PING)" = "PONG" ] || fail "coordinator PING after shard death"
# RELOAD must refuse cleanly — ERR naming the dead shard, framing and
# the serving epoch intact.
reload_reply=$(ask RELOAD)
case $reload_reply in
  ERR*shard*) : ;;
  *) fail "RELOAD with a dead shard answered '$reload_reply', want ERR" ;;
esac
[ "$(ask EPOCH)" = "EPOCH 2" ] || fail "failed reload must not swap the coordinator"
[ "$(ask PING)" = "PONG" ] || fail "coordinator PING after refused RELOAD"

stop_gracefully "$EXTRA_DIR/coord.log"
kill "$S0_PID" 2>/dev/null
wait "$S0_PID" 2>/dev/null
EXTRA_PIDS=
PORT=$SAVE_PORT
rm -rf "$EXTRA_DIR"
EXTRA_DIR=

echo "== striped pool: disk throughput must scale 1 -> 4 workers =="
# Same fixed load (4 concurrent clients x 40 requests) against the same
# disk deployment served with 1 worker and with 4, with a pool small
# enough (8 pages) that every request does real page I/O. The striped
# pool must let 4 workers overlap that I/O: the 4-worker wall time may
# not exceed 1.5x the 1-worker time (the single-mutex pager, which
# serialized every page access, fails this with time to spare). One
# ~130 ms sample per side is at the mercy of a shared host, so both
# servers run side by side, five trials alternate between them, and the
# medians are compared.
EXTRA_DIR=$(mktemp -d)
"$BIN" --docs 40 --index-dir "$EXTRA_DIR" --port "$PORT" >"$EXTRA_DIR/build.log" 2>&1 &
SRV_PID=$!
wait_port || { cat "$EXTRA_DIR/build.log" >&2; fail "deployment builder did not come up"; }
kill "$SRV_PID" && wait "$SRV_PID" 2>/dev/null
SRV_PID=

drive_clients() { # PORT N_CLIENTS REQS_EACH
  local pids= c p
  for c in $(seq 1 "$2"); do
    (
      for i in $(seq 1 "$3"); do
        exec 8<>"/dev/tcp/127.0.0.1/$1" || exit 1
        printf 'DESCENDANTS dblp_%04d - author 10\n' $(( (c * 7 + i) % 40 )) >&8
        while IFS= read -r -t 10 line <&8; do
          case $line in DONE\ *|TIMEOUT\ *|PARTIAL\ *|ERR\ *) break ;; esac
        done
        exec 8<&- 8>&-
      done
    ) &
    pids="$pids $!"
  done
  for p in $pids; do wait "$p" || fail "disk load client failed"; done
}

LAST_MS=
timed_load() { # PORT -> LAST_MS
  local t0 t1
  t0=$(date +%s%N)
  drive_clients "$1" 4 40
  t1=$(date +%s%N)
  LAST_MS=$(( (t1 - t0) / 1000000 ))
}

median() { printf '%s\n' "$@" | sort -n | sed -n "$(( ($# + 1) / 2 ))p"; }

PORT_1W=$PORT
PORT_4W=$((PORT + 1))
"$BIN" --index-dir "$EXTRA_DIR" --workers 1 --pool-pages 8 \
  --port "$PORT_1W" >"$EXTRA_DIR/w1.log" 2>&1 &
SRV_PID=$!
wait_port || { cat "$EXTRA_DIR/w1.log" >&2; fail "1-worker server did not come up"; }
"$BIN" --index-dir "$EXTRA_DIR" --workers 4 --pool-pages 8 \
  --port "$PORT_4W" >"$EXTRA_DIR/w4.log" 2>&1 &
EXTRA_PIDS=$!
PORT=$PORT_4W wait_port || { cat "$EXTRA_DIR/w4.log" >&2; fail "4-worker server did not come up"; }
drive_clients "$PORT_1W" 2 5 # warm-up: connection setup, pool fill
drive_clients "$PORT_4W" 2 5
ALL_1W=
ALL_4W=
for _ in 1 2 3 4 5; do
  timed_load "$PORT_1W"
  ALL_1W="$ALL_1W $LAST_MS"
  timed_load "$PORT_4W"
  ALL_4W="$ALL_4W $LAST_MS"
done
kill "$SRV_PID" "$EXTRA_PIDS" && wait "$SRV_PID" "$EXTRA_PIDS" 2>/dev/null
SRV_PID=
EXTRA_PIDS=
MS_1W=$(median $ALL_1W)
MS_4W=$(median $ALL_4W)
echo "disk load wall time, median of 5: 1 worker=${MS_1W}ms (${ALL_1W# }) 4 workers=${MS_4W}ms (${ALL_4W# })"
[ "$MS_4W" -le $(( MS_1W * 3 / 2 )) ] \
  || fail "4 workers did not keep up with 1 (median 1w=${MS_1W}ms 4w=${MS_4W}ms)"

rm -rf "$EXTRA_DIR"
EXTRA_DIR=

echo "smoke_serve: OK"
