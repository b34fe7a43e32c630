(** A page file with a striped LRU buffer pool — the storage regime of
    the paper's evaluation, where every index lived in a database and
    each label probe paid for page fetches. The disk-backed index
    variants (see {!Fx_index.Disk_labels}) run on top of this, and the
    benches use the pool statistics to reproduce the cold/warm
    behaviour that dominates the paper's absolute numbers.

    Pages are fixed-size blocks addressed by index. Reads go through the
    pool; writes mark the cached page dirty and are written back on
    eviction or {!flush}. Not crash-safe (no WAL) — the stores built on
    it are write-once index snapshots, rebuildable from the collection.

    {2 Locking contract}

    A pager is safe to share across OCaml 5 domains. Pages hash to
    [stripes] independent pool segments ([page mod stripes]); each
    stripe owns its own mutex, LRU segment, statistics counters, and a
    private file descriptor, so operations on different stripes never
    contend and positioned I/O needs no global lock. Within a stripe,
    pages that are mid-I/O (a miss fill, an eviction write-back) are
    latched per slot while the stripe mutex is {e released}, so miss
    I/O for page A does not block a pool hit on page B. No mutex is
    ever held across a [Unix] syscall — see DESIGN.md §7 for the
    acquisition order. No operation returns pool memory — {!read}
    hands back a fresh [Bytes] copy — so nothing is shared across a
    lock release. The structure layered on top ({!Heap_file}) is
    therefore safe for concurrent {e readers}; interleaving a writer
    with readers still needs external coordination, because one heap
    operation spans several page operations.

    {2 Error handling}

    A failed dirty-page write-back (ENOSPC, EBADF) raises out of the
    operation that triggered it — including reads whose pool fill had
    to evict a dirty page — but never loses the data: the page stays
    resident and dirty, the statistics stay truthful, and the pager
    remains usable, so a later {!flush} can retry once the condition
    clears. [Unix_error EINTR] is always retried, never surfaced. *)

type t

val create : ?pool_pages:int -> ?page_size:int -> ?stripes:int -> string -> t
(** [create path] opens or creates the page file. [page_size] (default
    4096) must match the file if it already exists (it is recorded in a
    header page). [pool_pages] (default 256) bounds the buffer pool;
    [stripes] (default 8, max 64) splits it into that many segments of
    [pool_pages / stripes] pages each. Raises [Invalid_argument] on a
    page-size mismatch or a corrupt header; [Sys_error] on I/O
    failure. No descriptor survives a failed create. *)

val page_size : t -> int
val pool_pages : t -> int
val n_stripes : t -> int

val n_pages : t -> int
(** Data pages currently in the file (the header page is not counted). *)

val append_page : t -> int
(** Allocate a fresh zeroed page at the end; returns its index. The
    file is extended before the index becomes visible, so concurrent
    readers never observe a page whose backing bytes are missing. *)

val read : t -> page:int -> offset:int -> len:int -> bytes
(** Read [len] bytes from one page (bounds-checked, overflow-safe).
    Returns a fresh copy — never a view into the pool. *)

val write : t -> page:int -> offset:int -> bytes -> unit
(** Write within one page; the page stays dirty in the pool until
    eviction or {!flush}. [offset] must lie strictly inside the page
    (so [offset = page_size] is rejected even for an empty buffer).
    The buffer is copied in under the stripe lock. *)

val prefetch : t -> page:int -> count:int -> unit
(** Readahead for sequential scans: pull up to [count] pages starting
    at [page] into the pool using large contiguous reads (one
    lseek+read per chunk instead of one per page). Pages are claimed
    only into free pool room — prefetching never evicts — and the
    range is clamped to the file, so the call is always safe to issue
    speculatively. {!Heap_file} record reads issue this on their own;
    callers doing raw sequential page sweeps can too. *)

val flush : t -> unit
(** Write every dirty pooled page back — batched in ascending page
    order, so the write-back I/O is sequential — then fsync. Raises on
    write-back failure, leaving the failed pages dirty and resident
    for a retry. *)

val close : t -> unit
(** {!flush} then close every file descriptor. Using [t] afterwards
    raises. If the final flush fails the pager stays open (and
    reportable) so the caller can retry or inspect it. *)

type stats = {
  logical_reads : int;   (** page requests *)
  physical_reads : int;  (** every page fetched from disk, prefetch
                             fills included *)
  physical_writes : int; (** page write-backs, file extensions, and the
                             fresh-file header write *)
  demand_misses : int;   (** requests that had to fetch from disk —
                             prefetch fills excluded *)
}

val stats : t -> stats
(** Summed over the stripes. Pool hits are
    [logical_reads - demand_misses] (never negative, however
    speculative the readahead was); misses are [demand_misses]. The
    serving layer exports both as Prometheus counters. *)

type stripe_stats = {
  stripe_index : int;
  resident_pages : int;       (** pages currently pooled in this stripe *)
  capacity_pages : int;       (** the stripe's pool segment bound *)
  stripe_logical_reads : int;
  stripe_physical_reads : int;
  stripe_physical_writes : int;
  lock_acquisitions : int;    (** stripe mutex + I/O-turn acquisitions *)
  lock_contended : int;       (** acquisitions that had to block *)
}

val stripe_stats : t -> stripe_stats list
(** Per-stripe occupancy and contention counters, in stripe order —
    the serving layer exports them as per-stripe Prometheus series so
    a hot stripe (bad page distribution) is visible in production. *)

val reset_stats : t -> unit
val drop_pool : t -> unit
(** Flush and empty every stripe's pool — a "cold cache" switch for
    benches. *)

val unsafe_fd : t -> Unix.file_descr
(** The descriptor used for header I/O and fsync — for tests and fault
    injection only. Reading or writing through it behind the pager's
    back corrupts the pool's view of the file. *)

val unsafe_page_fd : t -> page:int -> Unix.file_descr
(** The stripe descriptor that page I/O for [page] goes through — for
    fault injection (e.g. redirecting it at a full device) only. *)
