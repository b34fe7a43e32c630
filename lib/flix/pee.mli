(** The Path Expression Evaluator (PEE) — the query-time half of FliX
    (paper, Section 5, Fig. 4).

    A descendants query [a//B] keeps a priority queue of {e intermediate
    elements} ordered by ascending (estimated) distance to the start
    element [a]. The main loop pops the closest element [e], evaluates
    the query inside [e]'s meta document using that meta document's own
    index — returning all matches of the block at once — then looks up
    the link nodes reachable from [e] (the [L(a)] operation) and enqueues
    the link targets at priority [dist(a,e) + dist(e,l) + 1].

    Results therefore stream out {e approximately} ordered by distance:
    exact inside a meta-document block, approximate across blocks — the
    trade-off the paper quantifies with the error rates in Section 6.

    Duplicate elimination follows the paper: per meta document the PEE
    remembers its {e entry points}. A new entry that is a descendant of a
    previous entry point of the same meta document is dropped outright
    (everything below it was already returned), and individual results
    that are descendants of {e another} entry point are suppressed. *)

type t

val create : Index_builder.t -> t

type item = {
  node : int;       (** global node id *)
  dist : int;       (** path length found (exact within a meta document,
                        an upper bound across meta documents) *)
  meta : int;       (** meta document that produced the result *)
}

val descendants :
  ?tag:int -> ?max_dist:int -> ?include_self:bool -> t -> start:int -> item Result_stream.t
(** [descendants t ~start] evaluates [start//tag] (or [start//*] without
    [tag]). [max_dist] prunes the search as the paper's distance
    threshold does; [include_self] (default false) also yields the start
    element itself when it matches, i.e. descendants-or-self.

    A negative [tag] (an unknown tag name resolves to -1) matches no
    element: this and every other evaluator below that takes a tag
    return an empty stream without searching, so nothing is pushed or
    dropped. *)

val descendants_multi :
  ?tag:int -> ?max_dist:int -> t -> starts:int list -> item Result_stream.t
(** The [A//B] form: "the PEE determines all elements of type A and
    inserts them into the priority queue with priority 0" (Section 5.2).
    The same element may be reported once per distinct start whose
    subtree contains it.

    Every link push has priority >= 1, so the priority-0 starts are
    expanded before anything else and their order among themselves is
    free: the engine consumes [starts] lazily, in the given order, from a
    cursor instead of the heap. A stream abandoned after [k] results has
    touched only the starts it needed. *)

val descendants_multi_slice :
  ?tag:int -> ?max_dist:int -> t -> starts:int array -> lo:int -> hi:int -> item Result_stream.t
(** {!descendants_multi} over the starts [starts.(lo) .. starts.(hi - 1)],
    read in place: [Flix.evaluate] and the memory server pass the
    collection's per-tag row ({!Fx_xml.Collection.tag_slice}), so an
    [A//B] query builds no start list. The engine never writes
    [starts]. *)

val ancestors :
  ?tag:int -> ?max_dist:int -> ?include_self:bool -> t -> start:int -> item Result_stream.t
(** Mirror evaluation over reverse axes and incoming links. *)

val descendants_exact :
  ?tag:int -> ?max_dist:int -> ?include_self:bool -> t -> start:int -> item Result_stream.t
(** Like {!descendants}, but results stream in {e exactly} ascending
    true distance — the paper's future-work refinement (Section 7:
    "returning results exactly sorted instead of approximately"). The
    engine turns the link expansion into a proper Dijkstra: entry
    points are only dropped when a previous entry provably dominates
    them ([d' + dist(e', l) <= d]), results are buffered in a heap and
    released once no unexplored element can beat them, and duplicate
    elimination keys on emitted nodes (the first emission is minimal).
    Costs more queue traffic than the approximate engine. *)

val ancestors_exact :
  ?tag:int -> ?max_dist:int -> ?include_self:bool -> t -> start:int -> item Result_stream.t

val connected : ?max_dist:int -> t -> int -> int -> int option
(** [connected t a b] is [Some d] when [b] is reachable from [a] with a
    path of length [d <= max_dist] (d is exact within one meta document
    and an upper bound across several). The connection test of
    Section 5.2, behind one addition the paper does not have: a pair the
    registry's document-level reachability filter rules out answers
    [None] without searching (see {!Meta_document.registry}). Every other
    pair runs the search, so answers are the same either way. *)

val connected_bidir : ?max_dist:int -> t -> int -> int -> bool
(** The optimisation sketched in Section 5.2: run a descendants search
    from [a] and an ancestors search from [b] in lockstep, stopping as
    soon as either side finds the other. Reachability only. Pairs the
    document-level filter rules out answer [false] without searching,
    as in {!connected}. *)

val queue_stats : t -> int * int
(** (total queue insertions, total entry-point drops) since creation —
    observability for benches and tests. Insertions count the link
    pushes of every engine; the approximate engine's start elements are
    read from a cursor and are not counted, while the exact engines
    still insert (and count) their one start. *)
