(** APEX-style structural-summary path index (Chung, Min, Shim
    [SIGMOD 2002], here without the frequent-query workload adaptation —
    exactly the variant the FliX paper benchmarks against: "a
    database-backed implementation of APEX (without optimizations for
    frequent queries)").

    The summary is the backward-bisimulation quotient of the data graph
    (APEX-0 / 1-index structure): nodes with the same tag and
    bisimilar incoming structure share a summary node, whose {e extent}
    is the set of data nodes it represents. Label-path queries
    ([//a//b]) evaluate on the summary alone; element-anchored
    queries ([a//b], what FliX's PEE issues) run a summary-pruned BFS on
    the data graph — branches whose summary node cannot reach the target
    tag are cut. This keeps APEX compact but makes long descendant paths
    expensive, reproducing the qualitative profile in the paper's
    Figure 5. *)

type t

val build : ?k:int -> ?fb:bool -> Path_index.data_graph -> t
(** [k] bounds the bisimulation refinement depth, yielding the
    A(k)-index of the Index Definition Scheme the paper lists among the
    related path indexes: [k = 0] partitions by tag only, larger [k]
    distinguishes longer incoming label paths, [None] (default) refines
    to the full bisimulation fixpoint (APEX-0 / 1-index). [fb] demands
    stability under {e both} incoming and outgoing structure — the
    F&B-index of the same family, a finer partition that also covers
    branching (twig) patterns. Every variant produces an {e exact}
    index: the summary over-approximates reachability for any quotient,
    so the pruned search only gets less selective as the partition
    coarsens. *)

val n_blocks : t -> int
val block : t -> int -> int
(** Summary node of a data node. *)

val extent : t -> int -> int array
val summary_graph : t -> Fx_graph.Digraph.t

val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option
val descendants_by_tag : t -> int -> int option -> (int * int) list
val ancestors_by_tag : t -> int -> int option -> (int * int) list
val restricted_descendants : t -> Fx_graph.Bitset.t -> int -> (int * int) list
val restricted_ancestors : t -> Fx_graph.Bitset.t -> int -> (int * int) list

val descendants_stream : t -> int -> int option -> (int * int) Seq.t
(** Lazy {!descendants_by_tag}: the summary-pruned BFS advances only as
    results are consumed, in ascending distance order. Used to measure
    time-to-k-th-result honestly. *)

val eval_label_path : t -> string list -> tag_id:(string -> int option) -> int list
(** [eval_label_path t [l1; ...; lk] ~tag_id] answers the pure label-path
    query [//l1//l2//...//lk] on the summary: all data nodes at the end
    of such a tag chain, via extents — no data-graph traversal. *)

val entries : t -> int
val size_bytes : t -> int
val instance : ?k:int -> ?fb:bool -> Path_index.data_graph -> Path_index.instance
