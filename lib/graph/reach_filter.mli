(** A coarse reachability filter whose "no" is always right.

    The nodes are mapped onto {e groups} (in a linked XML collection:
    the documents). The filter keeps only the group graph: one node per
    group and an edge [g -> h] for every given node edge that crosses
    from group [g] to group [h]. It treats every group as internally
    strongly connected, so it over-approximates reachability in any graph
    whose group-crossing edges are among the given ones. A pair it rules
    out has no path in such a graph; a pair it cannot rule out may or may
    not have one.

    Two tests rule a pair out, both on the condensation of the group
    graph ({!Scc.condensation}):
    - component order: Tarjan ids are reverse-topological, so no path
      leads from a component to one with a higher id;
    - k = 3 GRAIL interval labels (Yildirim, Chaoji and Zaki, VLDB 2010):
      each label is a randomised post-order DFS, and reachability implies
      interval containment in every label.

    Building is linear in groups plus edges, apart from sorting each
    group's successors; the DFS is iterative, so citation chains
    thousands of groups deep are fine. The shuffles use a fixed seed:
    equal inputs build equal filters. Apart from the node -> group array
    the filter stores per-group and per-component arrays only. *)

type t

val build : n_groups:int -> group_of:int array -> (int * int) list -> t
(** [build ~n_groups ~group_of edges]: node [v] belongs to group
    [group_of.(v)], in [0 .. n_groups-1]. The filter keeps [group_of]
    (not a copy) for its queries. Edges inside one group are ignored.
    Raises [Invalid_argument] when an edge's endpoint or group is out of
    range. *)

val may_reach : t -> int -> int -> bool
(** [may_reach t a b] is false only when no path leads from node [a] to
    node [b] (see above). *)

val n_groups : t -> int
val n_components : t -> int

val build_ms : t -> float
(** Wall-clock time {!build} took. *)
