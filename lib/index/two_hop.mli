(** Distance-aware 2-hop labels for directed graphs (Cohen, Halperin,
    Kaplan, Zwick [SODA 2002]) — the label structure underlying HOPI.

    Every node [v] carries two label sets [L_in(v)] and [L_out(v)] of
    (hop node, distance) pairs such that for every pair [x ->* y] there
    is a hop [w ∈ L_out(x) ∩ L_in(y)] lying on a shortest path; then

    {v dist(x, y) = min { d_out(x, w) + d_in(w, y) | w common hop } v}

    The cover is computed by pruned landmark labeling (Akiba, Iwata,
    Yoshida [SIGMOD 2013]): vertices are processed in a caller-supplied
    order; each runs one forward and one backward pruned BFS. The result
    is an exact distance oracle for arbitrary directed graphs; the
    processing order only affects label size, never correctness — which
    is where {!Hopi}'s divide-and-conquer partitioning heuristic plugs
    in. *)

type t

val build : ?order:int array -> Fx_graph.Digraph.t -> t
(** [order] must be a permutation of the nodes; default: descending
    degree product, the classic heuristic. *)

val build_weighted : ?order:int array -> n:int -> (int * int * int) array -> t
(** Pruned landmark labeling over an explicit weighted edge list of
    [(src, dst, weight)] triples with [weight >= 0]: Dijkstra replaces
    BFS, everything else — the pruning rule, label shape, query and
    (de)serialization — is shared with {!build}, and the oracle is
    exact for any non-negative weights. The default order ranks by the
    unit-weight topology of the edges. This is what the sharded
    deployment's portal closure builds on: portal edges carry
    within-shard shortest-path segments, so their weights exceed 1.
    Raises [Invalid_argument] on out-of-range endpoints, negative
    weights, or a bad [order]. *)

val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

val entries : t -> int
(** Total number of (hop, distance) label entries over all nodes. *)

val size_bytes : t -> int
(** 8 bytes per entry (hop id + distance). *)

val max_label : t -> int
(** Largest single label set — the per-query cost bound. *)

val serialize : t -> string
(** Compact binary snapshot of the labels; rebuild-free loading via
    {!deserialize}. *)

val deserialize : string -> t
(** @raise Fx_util.Codec.Corrupt on malformed or truncated input. The
    decoder validates ranks, permutations and label entries, so a loaded
    index is structurally sound (it answers queries for the graph it was
    built on). *)

val n_nodes : t -> int

type side = In | Out  (** [L_in] or [L_out] *)

val label_length : t -> side -> int -> int

val iter_label : t -> side -> int -> (int -> int -> unit) -> unit
(** [iter_label t side v f] calls [f hop_rank dist] for every entry of
    [v]'s label on [side], ascending by hop rank, without copying — what
    {!Disk_labels} stores, merge-joins and inverts. *)

val in_label_nodes : t -> int -> int list
val out_label_nodes : t -> int -> int list
(** Hop nodes of a label, for inspection and tests. *)
