(** Materialised transitive closure as a Path Indexing Strategy.

    The brute-force connection index: every reachable (source, target,
    distance) triple is stored. Fastest possible lookups, prohibitive
    space — the paper uses it only as the yard-stick that HOPI is "more
    than an order of magnitude smaller than" (Section 6). In FliX it
    doubles as the oracle for tests and as a viable strategy for tiny
    meta documents. *)

type t

val build : Path_index.data_graph -> t
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option
val descendants_by_tag : t -> int -> int option -> (int * int) list
val ancestors_by_tag : t -> int -> int option -> (int * int) list
val restricted_descendants : t -> Fx_graph.Bitset.t -> int -> (int * int) list
val restricted_ancestors : t -> Fx_graph.Bitset.t -> int -> (int * int) list
val size_bytes : t -> int
val instance : Path_index.data_graph -> Path_index.instance
