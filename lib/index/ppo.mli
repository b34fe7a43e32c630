(** The pre/postorder path index (PPO) of Grust [SIGMOD 2002].

    For a tree (or forest), a depth-first traversal assigns each element
    its preorder rank [pre(e)] and postorder rank [post(e)]; then [x] is
    an ancestor of [y] iff [pre(x) <= pre(y) && post(x) >= post(y)], and
    the distance is [depth(y) - depth(x)]. Index size is O(n), build
    time O(n + m), and all XPath axes reduce to range conditions — which
    is why FliX prefers PPO whenever a meta document is link-free
    (paper, Sections 2.2 and 4.3).

    PPO is {e only} correct on forests; {!build} refuses anything else
    (this is the formal reason FliX needs the Maximal-PPO meta-document
    builder instead of indexing a linked collection directly). *)

type t

exception Not_a_forest
(** Raised by {!build} when some node has two parents or the graph has a
    cycle. *)

val build : Path_index.data_graph -> t
val is_buildable : Path_index.data_graph -> bool

val extend : t -> Path_index.data_graph -> t option
(** Incremental maintenance for the append-only delta: when [dg] is the
    graph the index was built on plus whole new trees on appended node
    ids (no edge touches the old node range in either direction, and
    every old node keeps its tag), the old numbering is still valid
    inside the new one — the tables are copied and only the appended
    trees are traversed, and the new ranks are appended to the per-tag
    lists. Returns [None] for any other shape of change (the caller
    rebuilds from scratch). Answers are identical to a fresh {!build}
    of [dg]. *)

val pre : t -> int -> int

val post : t -> int -> int
(** Derived, not stored: in a DFS forest [post v = pre v - depth v +
    subtree v - 1], where [subtree v] counts [v] and its descendants. *)

val depth : t -> int -> int

val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option
val descendants_by_tag : t -> int -> int option -> (int * int) list
(** [descendants_by_tag t x (Some w)] reads the nodes of tag [w] as the
    ascending preorder ranks the index keeps per tag (built in one pass
    over the preorder, by {!build}, {!extend} and {!deserialize} alike)
    and binary-searches [x]'s window [\[pre x, pre x + subtree x)], so
    it costs O(log n + answer), not O(subtree). A negative or unknown
    [w] answers [[]] without a search. [None] lists the whole subtree.
    Results are in (distance, node) order, as {!Path_index} requires:
    the same lists, ties included, as folding the subtree and sorting,
    so a PEE over this index pushes and pops exactly what it did when
    the lookups folded. *)

val ancestors_by_tag : t -> int -> int option -> (int * int) list

val restricted_descendants : t -> Fx_graph.Bitset.t -> int -> (int * int) list
(** Staged ({!Path_index.instance}): [restricted_descendants t set]
    collects the members of [set] as ascending preorder ranks once, and
    the returned lookup answers each node by the same window search as
    {!descendants_by_tag}. *)

val restricted_ancestors : t -> Fx_graph.Bitset.t -> int -> (int * int) list
(** Walks [x]'s parent chain, keeping the members of the set. *)

(** {1 Other XPath axes}

    PPO supports every axis from the plane of (pre, post) ranks; we
    expose the remaining ones used by query evaluation. *)

val parent : t -> int -> int option
val children : t -> int -> int list
val following : t -> int -> int list
(** Document order: nodes with greater [pre] outside the subtree. *)

val preceding : t -> int -> int list

val size_bytes : t -> int

val serialize : t -> string
val deserialize : Path_index.data_graph -> string -> t
(** The numbering tables for the graph the index was built on; the graph
    itself travels separately (it is the collection's). The per-tag rank
    lists are rebuilt from the preorder and the graph's tags.
    @raise Fx_util.Codec.Corrupt on malformed input, node-count
    mismatch, or a postorder table that disagrees with the others. *)

val instance : Path_index.data_graph -> Path_index.instance
(** @raise Not_a_forest like {!build}. *)

val instance_of : t -> Path_index.instance
(** Wrap an already-built (e.g. {!extend}ed) numbering. *)
