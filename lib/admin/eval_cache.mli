(** Cache over clean (complete, in-deadline) EVALUATE answers, tied to
    the serving snapshot's epoch, with invalidation scoped to tag
    pairs.

    When an ingest delta only adds nodes of tags [T], a cached answer
    for [(start_tag, target_tag)] disjoint from [T] is still exact —
    the new nodes can never appear in it — so it stays warm across the
    snapshot swap.

    The epoch rule lives here: every resident entry belongs to the
    cache's current epoch. A lookup or store made under any other epoch
    misses or is dropped, so an answer computed on a retired snapshot is
    never served, however late its store arrives. Thread-safe. *)

type key = { start_tag : string; target_tag : string; k : int; max_dist : int }

type 'v t

val create : capacity:int -> epoch:int -> 'v t
(** An empty cache of at most [capacity] entries whose current epoch is
    [epoch]. [capacity = 0] makes a cache that never stores. *)

val find : 'v t -> epoch:int -> key -> 'v option
(** A hit only when [epoch] is the cache's current epoch; lookups from
    another epoch miss without touching the counters. *)

val store : 'v t -> epoch:int -> key -> 'v -> unit
(** Store an answer computed under [epoch]. Dropped unless [epoch] is
    the cache's current epoch. *)

val swap : 'v t -> epoch:int -> Delta.scope -> unit
(** Move the cache to the new [epoch] for a snapshot swap with the given
    delta scope: [All] drops every entry; [Tags ts] drops the entries
    whose start or target tag is in [ts] and keeps the rest warm under
    [epoch]. Hit/miss counters are untouched. *)

val hits : 'v t -> int
val misses : 'v t -> int
val length : 'v t -> int

val invalidated : 'v t -> int
(** Total entries dropped by {!swap}. *)
