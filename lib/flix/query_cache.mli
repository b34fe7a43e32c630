(** Result caching for descendant queries — the paper's future-work item
    "caching results of frequent (sub-)queries" (Section 7).

    A cache wraps a {!Pee.t}. On a miss the query runs through the PEE
    and the {e complete} materialised result list is stored under
    (start, tag, max_dist); hits replay it as a stream at memory speed.
    Entries are bounded by an LRU policy on the query key plus a cap on
    cached results per entry (streams that were cut off by the client
    are not cached — they are incomplete).

    The cache key includes [max_dist] because a bounded query's results
    are not a prefix of the unbounded one (the PEE's order is
    approximate). An entry whose result list exceeds [max_results] is
    not stored. *)

type t

val create : ?capacity:int -> ?max_results:int -> Pee.t -> t
(** Defaults: 256 entries, 10,000 results per entry. *)

val descendants :
  ?tag:int -> ?max_dist:int -> t -> start:int -> Pee.item Result_stream.t
(** Cached version of {!Pee.descendants}. The first pull of a miss pays
    for the full evaluation (materialisation); hits stream instantly. *)

val invalidate : t -> unit
(** Drop everything — call after the underlying index is rebuilt. *)

type cache_stats = { entries : int; hits : int; misses : int; hit_rate : float }

val stats : t -> cache_stats
