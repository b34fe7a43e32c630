(** A small LRU map with hit/miss accounting. *)

type ('k, 'v) t

val create : capacity:int -> unit -> ('k, 'v) t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Refreshes the entry's recency on a hit. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Inserts or replaces; evicts least recently used entries while the
    capacity is exceeded (normally one, plus any backlog left by
    {!set}). *)

val set : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace {e without} evicting, leaving the map over
    capacity if need be — for callers that run their own eviction policy
    (the pager's stripe segments trim with {!peek_lru} + {!remove},
    skipping pages still being read). A {!set} map drains back to
    capacity on the next {!add}. *)

val peek_lru : ('k, 'v) t -> ('k * 'v) option
(** The least recently used entry, untouched. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Does not refresh recency. *)

val remove : ('k, 'v) t -> 'k -> unit

val iter : ('k, 'v) t -> ('k -> 'v -> unit) -> unit
(** Iterate over resident entries, unspecified order, without touching
    recency. *)

val length : ('k, 'v) t -> int
val clear : ('k, 'v) t -> unit

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
(** [find] outcomes since creation (or the last {!clear}). *)
