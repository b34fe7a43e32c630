(** A complete disk-resident HOPI deployment: the 2-hop labels and
    their inverted hop runs in a {!Disk_labels} heap, plus a
    {!Fx_store.Btree} tag directory keyed by [(tag << 32) | node] —
    mirroring the paper's Oracle schema (a label table and a
    composite-key element table).

    A descendants query [a//w] runs entirely from disk as the 2-hop
    join [desc(a) = ⋃_{h ∈ L_out(a)} L_in⁻¹(h)]: one fetch of [L_out(a)],
    then a distance-ordered merge over the [w]-runs of its hops, opened
    nearest hop first. It reads as many runs as the first [k] answers
    need, however many nodes carry tag [w].

    [save] writes two files, [<path>.labels] and [<path>.tags]. *)

type t

val save : ?page_size:int -> path:string -> Path_index.data_graph -> Hopi.t -> unit

val open_ : ?pool_pages:int -> ?page_size:int -> ?stripes:int -> path:string -> unit -> t
(** [stripes] splits each file's buffer pool into independent lock
    stripes — see {!Fx_store.Pager.create}.
    @raise Fx_util.Codec.Corrupt on mangled stores, and on a label file
    without hop runs (an older layout), naming the file. *)

val n_nodes : t -> int
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

type stream = unit -> (int * int) option
(** A pull stream of (node, distance) pairs, ascending by (distance,
    node), each node once at its exact distance. Every pull reads only
    the runs the next answer needs, so a caller stops paying when it
    stops pulling. *)

val descendants : t -> ?max_dist:int -> ?strict:bool -> int -> int option -> stream
(** [descendants t x want]: the nodes [x] reaches with tag [want]
    ([None]: any tag), [x] itself included at distance 0 when it
    matches — unless [strict]. The stream ends after the last node
    within [max_dist].
    Raises [Invalid_argument] on an out-of-range [x]. *)

val ancestors : t -> ?max_dist:int -> int -> int option -> stream
(** The nodes that reach [x], the mirror of {!descendants} (never
    strict: [x] is its own ancestor at 0 when it matches). *)

val descendants_of_starts :
  t -> ?max_dist:int -> ?expired:(unit -> bool) -> int list -> int option -> stream option
(** One merge over every start's hops: each node [v] once, at the least
    distance from a start [s ≠ v]. The start labels are fetched first;
    [None] when [expired] (checked before each fetch) turns true
    first. *)

val descendants_by_tag : t -> int -> int option -> (int * int) list
(** {!descendants} drained, distance-sorted like the in-memory instance. *)

val ancestors_by_tag : t -> int -> int option -> (int * int) list
(** {!ancestors} drained. *)

val nodes_by_tag : t -> int -> int list
(** Every node with the given tag id, ascending — one tag-directory
    range scan. Empty for an id the deployment does not know (negative
    ids included, so an unresolved tag name never probes the B-tree). *)

val restricted_descendants : t -> int -> Fx_graph.Bitset.t -> (int * int) list
val restricted_ancestors : t -> int -> Fx_graph.Bitset.t -> (int * int) list

val instance :
  ?pool_pages:int ->
  ?page_size:int ->
  path:string ->
  Path_index.data_graph ->
  Hopi.t ->
  Path_index.instance
(** Save the given in-memory index under [path] and expose the disk
    deployment as a Path Indexing Strategy, so the FliX Index Builder
    (via {!Fx_flix.Strategy_selector.Custom}) can keep chosen meta
    documents on disk while others stay in memory. The reported
    [size_bytes] is the on-disk footprint. *)

val stats : t -> Fx_store.Pager.stats * Fx_store.Pager.stats
(** (label file, tag file) buffer-pool statistics. *)

val stripe_stats : t -> Fx_store.Pager.stripe_stats list * Fx_store.Pager.stripe_stats list
(** (label file, tag file) per-stripe occupancy/contention counters. *)

val drop_pools : t -> unit
val close : t -> unit
