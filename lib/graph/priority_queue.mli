(** Binary min-heaps keyed by integer priorities.

    The FliX Path Expression Evaluator keeps intermediate elements ordered
    by ascending distance to the query's start node in exactly such a
    queue (paper, Section 5.1, Fig. 4).

    Priorities and payloads sit in two plain arrays, so an insert or a
    {!pop} allocates nothing once the arrays have grown to the heap's
    peak size. A popped payload may stay reachable from the heap until
    a later insert overwrites its slot or the heap is dropped. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val insert : 'a t -> int -> 'a -> unit
(** [insert q prio v] adds [v] with priority [prio]. *)

val min_prio : 'a t -> int
(** The smallest priority, without allocating.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> 'a
(** Removes the entry with the smallest priority, the one {!min_prio}
    reports, and returns its payload, without allocating. Ties are
    broken arbitrarily but deterministically: the order depends only on
    the sequence of inserts and removals, and it is the order a binary
    heap gives that swaps an entry one level at a time, comparing with
    strict [<] and the left child first.
    @raise Invalid_argument on an empty heap. *)

val clear : 'a t -> unit
