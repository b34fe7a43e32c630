(** The common interface of all Path Indexing Strategies (PIS).

    FliX composes heterogeneous indexes — "several Path Indexing
    Strategies S_1, ..., S_s, among them PPO, APEX and HOPI, that support
    the XPath axes and return results in ascending order of distance"
    (paper, Section 3.2). Each strategy packs itself into an {!instance}
    record of closures so the Indexing Strategy Selector can pick one per
    meta document at run time.

    All distances are hop counts; a node is its own descendant at
    distance 0 (descendants-or-self semantics, matching the paper's //
    axis). Result lists are sorted by ascending distance, ties by node
    id, and contain no duplicates. *)

type data_graph = {
  graph : Fx_graph.Digraph.t;
  tag : int array;  (** interned tag per node *)
}
(** What a strategy indexes: the (local) XML data graph of one meta
    document plus node tags. *)

val n_tags : data_graph -> int
val nodes_by_tag : data_graph -> int array array
(** [nodes_by_tag dg] groups node ids by tag, each group ascending. *)

type build_stats = {
  strategy : string;
  build_ns : int64;   (** wall-clock build time *)
  entries : int;      (** strategy-specific entry count (labels, tuples, ...) *)
  size_bytes : int;   (** storage footprint at 8 bytes per entry-like unit *)
}

type instance = {
  name : string;
  n_nodes : int;
  reachable : int -> int -> bool;
  distance : int -> int -> int option;
  descendants_by_tag : int -> int option -> (int * int) list;
      (** [descendants_by_tag a t] = all [(v, dist)] with a path [a ->* v]
          and [tag v = t] ([None]: any tag), ascending distance. *)
  ancestors_by_tag : int -> int option -> (int * int) list;
  restricted_descendants : Fx_graph.Bitset.t -> int -> (int * int) list;
      (** Descendants of [a] restricted to a node set — FliX's [L(a)]
          lookup, "conceptually computed by intersecting the set of
          descendants of a and L_i" (paper, Section 4.2).

          Staged: [let lookup = restricted_descendants set] does the
          per-set work once (PPO lays out every node's row,
          {!Ppo.link_rows}; the other strategies keep the set and scan
          per call), and [lookup a] then answers for one node. A stage
          is immutable and holds no cache: the set must not change while
          [lookup] is in use, and a changed set is staged afresh. *)
  restricted_ancestors : Fx_graph.Bitset.t -> int -> (int * int) list;
      (** Mirror of [restricted_descendants] for the ancestors-or-self
          axis, which the paper's PEE variant for ancestor queries needs
          (Section 5.1: "a similar algorithm can be applied to find
          ancestors of a given node"). Staged the same way. *)
  stats : build_stats;
}

val sort_results : (int * int) list -> (int * int) list
(** Normalise to (distance, node) ascending order. *)

val check_instance_agrees : instance -> instance -> samples:(int * int) list -> bool
(** Debug helper: do two instances agree on reachability and distance for
    the sampled pairs? *)
