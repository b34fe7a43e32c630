(** A read-only page file behind a striped LRU buffer pool — the
    storage regime of the paper's evaluation, where every index lived
    in a database and each label probe paid for page fetches. The
    disk-backed index variants (see {!Fx_index.Disk_labels}) run on top
    of this, and the benches use the pool statistics to reproduce the
    cold/warm behaviour that dominates the paper's absolute numbers.

    Pages are fixed-size blocks addressed by index, after one header
    page that records the page size and the file's root (see {!header}).
    The files are write-once index snapshots, rebuildable from the
    collection: {!Heap_file.write_file} writes one sequentially, and a
    pager only ever reads it. Pool pages are never dirty, so evicting
    one costs no I/O.

    {2 Locking contract}

    A pager is safe to share across OCaml 5 domains. Pages hash to
    [stripes] independent pool segments ([page mod stripes]); each
    stripe owns its own mutex, LRU segment, statistics counters, and a
    private file descriptor, so operations on different stripes never
    contend and positioned I/O needs no global lock. Within a stripe, a
    page whose miss fill is in flight is latched in its slot while the
    stripe mutex is {e released}, so miss I/O for page A does not block
    a pool hit on page B. No mutex is ever held across a [Unix] syscall
    — see DESIGN.md §7 for the acquisition order. {!read} hands back a
    fresh [Bytes] copy, never pool memory, so nothing is shared across
    a lock release.

    {2 Error handling}

    A failed page read raises out of the {!read} that needed it and
    leaves no half-filled page in the pool; a later read retries it.
    [Unix_error EINTR] is always retried, never surfaced. *)

type t

val header : page_size:int -> root:int option -> bytes
(** The header page of a file with the given page size: the magic,
    the page size, and [root] — the byte position a {!Heap_file}
    records for its last record — when there is one. *)

val open_ : ?pool_pages:int -> ?stripes:int -> string -> t
(** [open_ path] opens an existing page file read-only; the page size
    and root come from its header. [pool_pages] (default 256) bounds
    the buffer pool; [stripes] (default 8, max 64) splits it into that
    many segments of [pool_pages / stripes] pages each. Raises
    [Invalid_argument] on a corrupt header or a file length that is
    not a whole number of pages; [Unix_error] on I/O failure. No
    descriptor survives a failed open. *)

val page_size : t -> int

val n_pages : t -> int
(** Data pages in the file (the header page is not counted). *)

val root : t -> int option
(** The root recorded in the header; [None] in a header written
    without one (every file written before roots were recorded). *)

val read : t -> page:int -> offset:int -> len:int -> bytes
(** Read [len] bytes from one page (bounds-checked, overflow-safe).
    Returns a fresh copy — never a view into the pool. *)

val close : t -> unit
(** Close every file descriptor. Using [t] afterwards raises. *)

type stats = {
  logical_reads : int;   (** page requests *)
  physical_reads : int;  (** page requests that had to fetch from disk *)
}

val stats : t -> stats
(** Summed over the stripes. Pool hits are
    [logical_reads - physical_reads]; misses are [physical_reads]. The
    serving layer exports both as Prometheus counters. *)

type stripe_stats = {
  stripe_index : int;
  resident_pages : int;       (** pages currently pooled in this stripe *)
  capacity_pages : int;       (** the stripe's pool segment bound *)
  stripe_logical_reads : int;
  stripe_physical_reads : int;
  lock_acquisitions : int;    (** stripe mutex + I/O-turn acquisitions *)
  lock_contended : int;       (** acquisitions that had to block *)
}

val stripe_stats : t -> stripe_stats list
(** Per-stripe occupancy and contention counters, in stripe order —
    the serving layer exports them as per-stripe Prometheus series so
    a hot stripe (bad page distribution) is visible in production. *)

val reset_stats : t -> unit

val drop_pool : t -> unit
(** Empty every stripe's pool — a "cold cache" switch for benches. *)
