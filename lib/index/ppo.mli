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

(** {1 Link sets}

    FliX's [L(a)] lookup: the members of a node set (a meta document's
    link nodes [L_i]) that are descendants-or-self, or
    ancestors-or-self, of [a], in (distance, node) order. *)

type link_rows
(** [L(a)] laid out once for every node [a]: one flat table of rows
    (CSR), stored as int32 outside the OCaml heap. Immutable. *)

val link_rows : t -> Fx_graph.Bitset.t -> link_rows
(** [link_rows t set] stages the descendants-or-self of every node
    restricted to [set], in O(n + pairs) after sorting the members by
    (depth, node): each member is appended to the row of every
    ancestor-or-self, so each row comes out in (distance, node) order
    without a per-row sort. An empty set stages nothing. *)

val iter_link_row : link_rows -> int -> (link:int -> dist:int -> bool) -> unit
(** [iter_link_row r a f] calls [f ~link ~dist] on [a]'s row in
    (distance, node) order until [f] returns [false]. It allocates
    nothing. *)

val link_row_pairs : link_rows -> int
(** (node, link) pairs stored: the total length of the rows. *)

val link_row_bytes : link_rows -> int
(** Bytes of the table: four per offset and per pair. *)

val iter_ancestors_in : t -> Fx_graph.Bitset.t -> int -> (link:int -> dist:int -> bool) -> unit
(** [iter_ancestors_in t set a f]: the ancestors-or-self of [a] that are
    in [set], like {!iter_link_row}. A walk up the parent chain meets
    them in distance order already, so nothing is staged. *)

val restricted_descendants : t -> Fx_graph.Bitset.t -> int -> (int * int) list
(** Staged ({!Path_index.instance}): [restricted_descendants t set]
    builds {!link_rows} once, and the returned lookup lists a row. *)

val restricted_ancestors : t -> Fx_graph.Bitset.t -> int -> (int * int) list
(** {!iter_ancestors_in} as a list. *)

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
