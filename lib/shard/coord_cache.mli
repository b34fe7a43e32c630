(** The coordinator-side result cache for merged [EVALUATE] answers.

    The single-server {!Fx_flix.Query_cache} lives below the shard
    boundary and never sees a cross-shard merge; this cache sits above
    it, keyed by (start tag, target tag, [k], [max_dist]). Shard
    indexes are immutable for the life of a deployment, so entries
    never go stale on their own — the epoch exists for operational
    invalidation ({!invalidate}), e.g. after a coordinator reload
    changes the plan. Only clean answers belong here: the coordinator
    refuses to cache [TIMEOUT]/[PARTIAL] merges, so a degraded answer
    is recomputed (and hopefully repaired) on the next ask.

    All operations take the cache's own lock; callers on worker domains
    need no coordination. *)

type t

type stats = { entries : int; hits : int; misses : int; epoch : int }

val create : capacity:int -> unit -> t
(** LRU capacity in entries. Raises [Invalid_argument] when
    [capacity < 1]. *)

val epoch : t -> int
(** The current epoch, starting at 0; {!invalidate} bumps it. A caller
    reads it before computing a merge and hands it to {!store}. *)

val find :
  t ->
  start_tag:string ->
  target_tag:string ->
  k:int ->
  max_dist:int option ->
  Fx_server.Protocol.item list option
(** The merged item list exactly as it was emitted, or [None] on a
    miss. Refreshes LRU recency and counts into {!stats}. *)

val store :
  t ->
  epoch:int ->
  start_tag:string ->
  target_tag:string ->
  k:int ->
  max_dist:int option ->
  Fx_server.Protocol.item list ->
  unit
(** Store a merge computed under [epoch]. Dropped when [epoch] is no
    longer current: a merge computed before an {!invalidate} never
    lands in the cache, however late its store arrives. *)

val invalidate : t -> unit
(** Bump the epoch and drop every entry. Resets the hit/miss counters
    (they count since the last clear). *)

val invalidate_tags : t -> string list -> unit
(** Scoped invalidation for a tag-bounded delta: drop only entries
    whose start {e or} target tag is in the list. No epoch bump — the
    surviving entries stay reachable and warm, and the hit/miss
    counters are untouched. Sound only when every document change is
    confined to the given tags (see {!Fx_admin.Delta.extend_scope});
    an unbounded change must use {!invalidate}. *)

val stats : t -> stats
