(** A complete disk-resident HOPI deployment: one {!Disk_labels} heap
    holding the 2-hop labels, their inverted hop runs and the tag
    directory, behind one buffer pool — mirroring the paper's Oracle
    schema (a label table and an element table) in one paged file.

    A descendants query [a//w] runs entirely from disk as the 2-hop
    join [desc(a) = ⋃_{h ∈ L_out(a)} L_in⁻¹(h)]: one fetch of [L_out(a)],
    then a {!Fx_graph.Run_merge} over the [(d1 + d2, y)] keys of the
    [w]-runs of its hops, opened nearest hop first. It reads as many
    runs as the first [k] answers need, however many nodes carry tag
    [w].

    [save] writes one file, [<path>.labels]. *)

type t

val save : ?page_size:int -> path:string -> Path_index.data_graph -> Hopi.t -> unit

val open_ : ?pool_pages:int -> path:string -> unit -> t
(** Open a saved deployment read-only — see {!Disk_labels.open_}.
    Creates no file.
    @raise Sys_error naming [<path>.labels] when it does not exist.
    @raise Fx_util.Codec.Corrupt naming [<path>.labels] on a mangled
    store or one of an earlier layout. *)

val n_nodes : t -> int

val n_tags : t -> int
(** One more than the largest tag id saved. *)

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
(** Every node with the given tag id, ascending — one tag record read
    through the pool. Empty for an id the deployment does not know
    (negative ids included, so an unresolved tag name reads nothing).
    @raise Fx_util.Codec.Corrupt on a mangled tag record. *)

val stats : t -> Fx_store.Pager.stats
(** Buffer-pool statistics. *)

val stripe_stats : t -> Fx_store.Pager.stripe_stats list
(** Per-stripe occupancy/contention counters. *)

val drop_pool : t -> unit
(** Cold-cache switch: empty the buffer pool. *)

val close : t -> unit
