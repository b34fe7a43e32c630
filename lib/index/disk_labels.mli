(** Disk-resident 2-hop labels — the database-backed deployment of HOPI
    the paper actually benchmarked ("all strategies … store all
    information in database tables and do not explicitly cache
    information in main memory", Section 6).

    {!save} lays a {!Two_hop.t} out in a {!Fx_store.Heap_file}: one
    record per non-empty label, every hop's inverted label run (see
    {!open_runs}), one record per tag id listing its nodes (see
    {!nodes_by_tag}), a directory mapping nodes, hops and tags to
    record handles, and a trailer locating the directory and naming
    the store layout; the file header's root points at the trailer.
    {!open_} maps the file back read-only with a bounded buffer pool; every {!distance} probe then costs two record fetches
    whose page reads hit or miss the pool — which is exactly the regime
    behind the paper's absolute numbers. The D1 bench drives this cold
    and warm. *)

type t

val save : ?page_size:int -> tags:int array -> path:string -> Two_hop.t -> unit
(** Write a label store with {!Fx_store.Heap_file.write_file}, one
    sequential pass ending in an fsync. An existing file at [path] is
    unlinked first, never truncated, so a server still reading it keeps
    its bytes. [tags] is the tag id of every node.
    Raises [Invalid_argument] on a tag array of the wrong length or a
    negative tag id. *)

val open_ : ?pool_pages:int -> string -> t
(** Open a saved store read-only. [pool_pages] (default 256) bounds
    the buffer pool, split into 8 lock stripes; the page size comes
    from the file. Reads the directory and nothing else. Creates no
    file.
    @raise Sys_error naming the file when it does not exist.
    @raise Fx_util.Codec.Corrupt naming the file on a mangled store, and
    on a store of an earlier layout or a header without a root (with
    how to rebuild it). *)

val n_nodes : t -> int
val reachable : t -> int -> int -> bool
val distance : t -> int -> int -> int option

val n_tags : t -> int
(** One more than the largest tag id saved. *)

val nodes_by_tag : t -> int -> int list
(** Every node with the given tag id, ascending — one tag record read
    through the pool. Empty for a negative or unknown id.
    @raise Fx_util.Codec.Corrupt on a record out of order or naming a
    node out of range. *)

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
