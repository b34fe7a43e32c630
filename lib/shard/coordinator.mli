(** The scatter-gather coordinator: N shard servers behind one FliX
    line-protocol endpoint.

    The coordinator plugs into {!Fx_server.Server} as one more
    {!Fx_server.Server.backend} record behind the server's single
    request front. The front owns everything backend-independent —
    admission control, deadlines, node-range checks, resolving a
    [DESCENDANTS] name to its node, the [k] cap, the error texts,
    metrics, incremental [ITEM] flushing, and the one [EVALUATE] answer
    cache (so a repeated [EVALUATE] is replayed by the front and never
    reaches this module). This module owns the fan-out and the
    distributed-distance arithmetic. A document name resolves from the
    plan, with no shard request; only a name with an anchor asks the
    document's shard.

    {b Query evaluation.} A path between nodes in different shards
    decomposes into within-shard segments joined by cross-shard links
    (weight 1), and the manifest knows every such link. The link
    endpoints — {e portals} — and the document roots form the portal
    graph, and the {!Portal_closure} loaded with the plan holds its
    exact distances as 2-hop labels, inverted at load so that
    {!Portal_closure.nearest} enumerates the portals reachable from a
    set of seeds nearest first. Shards are only asked for the
    within-shard legs at either end ([CONNECTED], nearest-start
    [ANCESTORS]) and for result streams ([NDESCENDANTS], [ANCESTORS]):

    - [EVALUATE]: phase 1 fans the query to every shard in parallel
      (per-shard top-[k] by shard distance covers the global top-[k]);
      phase 2 seeds entry portals from per-link [ANCESTORS] probes
      (nearest start-tag node above each link source), enumerates the
      entry portals nearest first from the seeds, and merges an offset
      [NDESCENDANTS] stream per reached entry.
    - [DESCENDANTS]/[NDESCENDANTS]: the same enumeration from the one
      resolved start node — with no probe at all when the start is a
      document root or portal. [ANCESTORS] enumerates exit portals
      backward from the node's leg set — the within-shard distances
      from the entry portals of its shard that reach it — and merges
      their [ANCESTORS] streams. [CONNECTED] joins [a]'s exit legs (or
      [a] itself, when anchored) with [b]'s leg set: one label join per
      pair when there are few, else entry portals nearest first until
      none can beat the best path found.

    The merge opens portals lazily: before it emits an item at distance
    [d] it opens every portal at offset [<= d] — its own item, and its
    stream, replayed from the answer memo or fetched in that level's
    wave (a level of memo hits sends nothing) — so a top-[k] request
    reads only the portals nearer than its [k]-th answer. Each round of
    probes goes out as one pipelined [BATCH] per shard, which a shard
    meets with backpressure, never [BUSY]; only [EVALUATE]'s phase 1
    goes out as plain requests. Round trips and the batch-size
    distribution are exported as [flix_shard_probe_rpcs_total] /
    [flix_shard_probe_subs_total] / [flix_shard_probe_batch_size],
    enumerator pops and label joins as
    [flix_coord_closure_lookups_total].

    All result streams are k-way-merged by distance with
    {!Fx_graph.Priority_queue}, deduplicating nodes on first (nearest)
    occurrence, so the merged stream keeps FliX's
    approximately-ascending-distance contract. The merge is a pull
    stream: the front stops it at [k] items or, after its first item,
    at the deadline.

    {b Fault handling.} Shard calls carry the remaining deadline and
    ride {!Shard_client}'s retry/backoff/receive-timeout layer. When a
    shard stays down, its contribution is dropped and the response is
    degraded instead of failed: stream verbs answer a [PARTIAL]
    trailer — [DESCENDANTS] by the name of a document on a lost shard
    too, with what the other shards' portals reach, as [NDESCENDANTS]
    on its root does — [RESOLVE] of an anchor answers [PARTIAL 0], and
    [CONNECTED] answers a
    possibly-overestimated [DIST] (any path found is a real path) or
    [PARTIAL 0] when no path survives. Per-shard failures are counted
    in [flix_shard_errors_total]; fan-out call latencies land in the
    [flix_shard_fanout_latency_ms] histogram (see {!metric_lines}). *)

type t

val create :
  closure:Portal_closure.t ->
  plan:Shard_plan.t ->
  shards:(string * int) list ->
  unit ->
  t
(** [shards] lists one [host, port] per plan shard, in shard order
    (a host name is resolved once, here), and
    [closure] is the portal closure built for [plan] (the pair
    {!Portal_closure.load_manifest} returns). Raises [Invalid_argument]
    when the shard count does not match the plan, when a host does not
    resolve, or when
    {!Portal_closure.matches} fails — a closure built for another plan
    would join wrong distances, so it is refused, never used.

    Shard answers are remembered in one memo, keyed by the shard and
    the request sent to it: [CONNECTED] exit legs and same-shard direct
    distances, nearest-start [ANCESTORS], and the portal streams
    ([NDESCENDANTS] of an entry portal, [ANCESTORS] of an exit portal).
    An answer is held as it is read: a distance, or a stream as one
    packed run of [dist * total_nodes + global node] per item, built
    once when the reply arrives. The merge reads a run through a cursor
    at the offset its portal was reached at, so one run serves every
    start, and builds an [ITEM] only for an item it emits. Its one store
    rule is the front answer cache's: a [DIST], or a
    stream with neither a [TIMEOUT] nor a [PARTIAL] trailer, so a
    cut-off answer is asked again, never replayed. A start's own stream
    is not remembered. Final legs are kept as one leg set per target,
    stored only when every probe behind it answered [DIST]. Shard
    indexes are immutable, so nothing stored goes stale; the memo and
    the leg sets are each reset whole when a store would take them past
    65,536 (an answer counts 1, a leg set its legs plus 1). A request
    reads only the replies of its own waves and the leg sets it holds,
    so a reset never changes an answer. STATS reports
    [probe cache: <answers> answers, <sets> leg sets]. *)

val closure_lookups_total : t -> int
(** Portal-closure lookups: enumerator pops (see
    {!Portal_closure.nearest}) and the label joins of a small [CONNECTED]
    ({!Portal_closure.distance_at}) — the number behind
    [flix_coord_closure_lookups_total]. *)

val backend : t -> Fx_server.Server.backend
(** Serve with [Server.start_backend (Coordinator.backend t)]. Its
    [stats] are the plan summary, shard addresses and error counters,
    its [metric_lines] are {!metric_lines}, and its [close] is
    {!close}. *)

val metric_lines : t -> unit -> string list
(** Prometheus series for the coordinator. *)

val shard_errors_total : t -> int
(** Failed shard attempts across all shards (sum of the per-shard
    counters) — the number behind [flix_shard_errors_total]. *)

val probe_rpcs_total : t -> int
(** Wire round trips to shards across all shard clients — the number
    behind [flix_shard_probe_rpcs_total]. *)

val probe_subs_total : t -> int
(** Sub-requests carried by those round trips; the spread to
    {!probe_rpcs_total} is what the [BATCH] envelope saves
    ([flix_shard_probe_subs_total]). *)

val reload : t -> plan:Shard_plan.t -> closure:Portal_closure.t -> (t, string) result
(** Shard-by-shard hot reload onto the re-read manifest's [plan] and
    [closure]: probe every shard ([EPOCH], 2 s budget), then fan
    [RELOAD] out to each (120 s budget), then build a replacement
    coordinator with fresh connections to the same addresses. Any
    failure — a closure that does not match [plan] (refused before any
    shard is touched; rebuild with [--build-shards]), a dead shard
    found by the probe, a shard lost or refusing mid-reload — returns
    [Error] and leaves [t] untouched, so the caller keeps serving the
    old epoch whole; there is no mixed state. On success the caller
    publishes the returned coordinator (e.g. via the server's snapshot
    swap) and eventually {!close}s the old one. The returned coordinator
    starts with an empty memo and no leg sets; the front server's swap
    clears its [EVALUATE] answer cache. *)

val close : t -> unit
(** Close pooled shard connections. *)
