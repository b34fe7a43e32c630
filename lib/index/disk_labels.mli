(** Disk-resident 2-hop labels — the database-backed deployment of HOPI
    the paper actually benchmarked ("all strategies … store all
    information in database tables and do not explicitly cache
    information in main memory", Section 6).

    {!save} lays a {!Two_hop.t} out in a {!Fx_store.Heap_file}: one
    record per non-empty label, a directory mapping nodes to record
    handles, and a trailer locating the directory — plus, for a
    deployment, every hop's inverted label run (see {!open_runs}).
    {!open_} maps the file back with a bounded buffer pool; every
    {!distance} probe then
    costs two record fetches whose page reads hit or miss the pool —
    which is exactly the regime behind the paper's absolute numbers.
    The D1 bench drives this cold and warm. *)

type t

val save : ?page_size:int -> ?tags:int array -> path:string -> Two_hop.t -> unit
(** Write a label store; overwrites an existing file. With [tags] (the
    tag id of every node, all [>= 0]) it also writes the inverted hop
    runs {!open_runs} reads — what a {!Disk_hopi} deployment needs;
    without, the store answers {!distance} only.
    Raises [Invalid_argument] on a tag array of the wrong length or a
    negative tag id. *)

val open_ : ?pool_pages:int -> ?page_size:int -> ?stripes:int -> string -> t
(** [pool_pages] (default 256) bounds the buffer pool; [stripes]
    (default 8) splits it — see {!Fx_store.Pager.create}.
    @raise Fx_util.Codec.Corrupt on a mangled store. *)

val n_nodes : t -> int
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

val has_runs : t -> bool
(** The store was saved with [tags] and carries hop runs. *)

(** {2 Hop runs}

    The inverted labels, for answering [a//w] as a merge over the hops
    of one label instead of one probe per candidate. The down run of a
    hop [h] lists every [(y, d)] with [(h, d) ∈ L_in(y)] — the nodes [h]
    reaches — grouped by [tag y] and ascending by [(d, y)] within a
    group; the up run mirrors it over [L_out]. *)

type direction = Down | Up

val hops : t -> direction -> int -> (int * int) array
(** The label a merge from [v] expands, as (hop rank, distance) pairs
    ascending by rank: [L_out(v)] going [Down], [L_in(v)] going [Up].
    Raises [Invalid_argument] on an out-of-range node. *)

type cursor
(** One tag group of one hop's run, read lazily through the pool. *)

val open_runs : t -> direction -> hop:int -> int option -> cursor list
(** The cursors of hop rank [hop]'s run: the one group of the given tag
    (none when the hop reaches no such node), or every group for
    [None]. Costs one pool read for a small run.
    Raises [Invalid_argument] on a store without runs;
    @raise Fx_util.Codec.Corrupt on a bad hop rank or a mangled run. *)

val advance : cursor -> bool
(** Step to the next entry; [false] once the group is exhausted. *)

val cursor_dist : cursor -> int
val cursor_node : cursor -> int
(** The current entry, after an {!advance} that returned [true]. *)

val stats : t -> Fx_store.Pager.stats

val stripe_stats : t -> Fx_store.Pager.stripe_stats list
val reset_stats : t -> unit
val drop_pool : t -> unit
(** Cold-cache switch: empty the buffer pool. *)

val close : t -> unit
