(** The distance merge: one k-way merge over runs of packed
    [(dist, node)] keys, each run ascending, that reports every node
    once, at its least key — the nearest-first order of the paper's
    path expression evaluator (Section 5.1, Fig. 4), over any sources
    that yield sorted runs. DESIGN.md ("The distance merge") gives its
    invariants.

    A run is read through a cursor of the caller's type ['c] and the
    caller's [step], which consumes and returns the cursor's next key.
    The heap holds each cursor keyed by its head, so a merge allocates
    nothing per key beyond what [step] and [emit] do. *)

(** {1 Packed keys} *)

val bits : int -> int
(** [bits n]: the bits a node id below [n] needs — 0 when [n <= 1]. *)

val pack : bits:int -> int -> int -> int
(** [pack ~bits d v] is [(d lsl bits) lor v], for a node [v] below
    [2^bits]: integer order on keys is (distance, node) order, the order
    [d * n + v] gives. Adding [pack ~bits o 0] to a key adds [o] to its
    distance. *)

val dist : bits:int -> int -> int
(** The distance of a key: a shift. *)

val node : bits:int -> int -> int
(** The node of a key: a mask. *)

(** {1 The merge} *)

type ('c, 'a) t

val create :
  bits:int ->
  ?exclude:int ->
  ?before_pop:(('c, 'a) t -> unit) ->
  ?on_pop:(unit -> unit) ->
  emit:('c -> int -> int -> 'a) ->
  ('c -> int) ->
  ('c, 'a) t
(** [create ~bits ~emit step]: an empty merge over keys packed with
    [bits]. [step c] consumes and returns cursor [c]'s next key, or a
    negative number once its run is exhausted. [emit c v d] builds the
    answer for node [v] at distance [d], [c] being the cursor it came
    from, already stepped past it. [exclude] (default none) is never
    emitted. [before_pop] runs before every heap pop, duplicates
    included, and once more before the merge reports its end: a source
    whose run starts at offset [o] and is added there as soon as
    [o <= front m] is read exactly as if it had been added up front.
    [on_pop] runs once per heap pop, duplicates included. *)

val add : ('c, 'a) t -> 'c -> unit
(** Step a cursor once and queue it by the key it returns; a cursor
    with an empty run is dropped. *)

val front : ('c, 'a) t -> int
(** The distance of the least queued key, [max_int] when the heap is
    empty. *)

val next : ('c, 'a) t -> 'a option
(** The answer for the next node not yet emitted (nor excluded), in
    ascending (distance, node) order; [None] once every run is
    drained. *)
