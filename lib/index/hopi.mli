(** HOPI — the 2-hop connection index for XML collections (Schenkel,
    Theobald, Weikum [EDBT 2004]), distance-augmented.

    HOPI = the 2-hop labels of {!Two_hop} plus (a) an index-construction
    strategy driven by graph partitioning — partition the XML graph into
    bounded parts with few crossing edges, cover the parts first, then
    stitch across partition borders — and (b) the element-level query
    operations FliX needs (descendants of an element with a given tag,
    sorted by distance).

    We realise (a) as a landmark {e ordering}: border nodes of the
    partitioning (endpoints of partition-crossing edges) become landmarks
    first, then the remaining nodes by descending degree. Pruned landmark
    labeling is exact under any ordering, so this preserves HOPI's index
    semantics while keeping construction near-linear per partition; see
    DESIGN.md for the substitution note. *)

type t

val build :
  ?ordering:[ `Coverage | `Borders_first ] ->
  ?partition_size:int ->
  Path_index.data_graph ->
  t
(** [ordering] selects how landmarks are ranked: [`Coverage] (default)
    by estimated covered pairs, [`Borders_first] additionally fronts the
    border nodes of a bounded partitioning — the literal transcription
    of the divide-and-conquer heuristic; [partition_size] (default 5000)
    bounds its partitions. Both yield exact indexes; they differ only in
    label volume (see the psweep/ablation benches). *)

val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option
val descendants_by_tag : t -> int -> int option -> (int * int) list
val ancestors_by_tag : t -> int -> int option -> (int * int) list
val restricted_descendants : t -> Fx_graph.Bitset.t -> int -> (int * int) list
val restricted_ancestors : t -> Fx_graph.Bitset.t -> int -> (int * int) list

val labels : t -> Two_hop.t
val entries : t -> int
val size_bytes : t -> int

val instance :
  ?ordering:[ `Coverage | `Borders_first ] ->
  ?partition_size:int ->
  Path_index.data_graph ->
  Path_index.instance
