(** The concurrent FliX query service.

    [start flix] binds a TCP socket and serves the {!Protocol} over it.
    Since {!Fx_flix.Flix.t} is immutable after [build], serving is a
    shared-read problem: each worker runs on its own OCaml 5 [Domain]
    and every request gets its own {!Fx_flix.Pee} evaluator over the
    shared index, so queries proceed truly in parallel.

    Request flow: a per-connection thread parses request lines and
    enqueues jobs onto a bounded {!Work_queue} ([BUSY] when full —
    admission control); a worker domain evaluates the job under the
    per-request deadline.

    One request front over one backend record: every job passes
    through the same worker-side front whatever serves it. A
    {!backend} is a record of node-level primitives — name resolution,
    [CONNECTED], pull streams for descendants, ancestors and
    [EVALUATE], [STATS] and [METRICS] lines, and [close] — built by
    {!memory}, {!disk}, or {!Fx_shard.Coordinator.backend}. The front
    is the only verb dispatcher: it refuses verbs that never reach the
    pool, caps [k] at [max_results], range-checks node ids, resolves a
    [DESCENDANTS] document name through [resolve] and then streams
    [descendants] from the node, and runs every [EVALUATE] through the
    one answer cache — a hit replays the cached items; a miss streams
    the backend's answer and stores it only when it is clean (no
    [TIMEOUT] or [PARTIAL] trailer).

    The worker that evaluates a request writes its answer itself,
    straight into the connection's output: while the job runs
    the connection thread waits on the connection's completion cell, so
    the socket's output side belongs to the worker, and the request
    crosses domains once each way whatever its item count. Stream verbs
    are flushed incrementally: the first [ITEM] as soon as the stream is
    pulled again, later ones once a millisecond has passed since the
    last flush, and the rest with the trailer ([DONE]/[TIMEOUT]/
    [PARTIAL]) — so a downstream consumer (e.g. the sharded
    coordinator's merge) sees results before a slow stream ends, and a
    fast one costs few writes. A write that finds the client gone ends
    the evaluation and the connection, never the worker; a write that
    makes no progress for 10 s counts as a client gone. [PING] and
    [METRICS] are answered inline, bypassing the pool, so the
    observability plane stays responsive on a saturated server.

    Deadlines default to [config.deadline_ms] and can be overridden per
    request with the [DEADLINE <ms>] envelope prefix. The front checks
    a stream's deadline after every item it pulls, so a stream verb
    ([DESCENDANTS], [EVALUATE], ...) always returns the first item its
    backend yields and then ends [TIMEOUT] once the deadline has
    passed; [SLEEP] is cut the same way. Single-answer verbs
    ([CONNECTED], [RESOLVE], [STATS]) run to completion once started —
    their work is already bounded. One queued-expiry rule holds for
    every backend: a job whose deadline expired while it sat in the
    queue answers [TIMEOUT 0] for [STATS], [CONNECTED] and [RESOLVE]
    without being evaluated, so an overloaded worker pool does not
    amplify its own backlog, while a stream verb still streams its
    first item. A backend that needs deadline-bound work before its
    first item — the disk [EVALUATE]'s start labels, the coordinator's
    shard requests — yields none once the budget is gone, and the
    answer is [TIMEOUT 0]. An [EVALUATE] cache hit is replayed
    whatever its deadline.

    Batches: a [BATCH <n>] header and its [n] sub-requests are one job
    — one round trip and one queue slot for a whole probe wave. One
    worker answers the subs in index order, writing each [SUB <i>]
    line, the items and the trailer into the connection's output as for
    a single request, with the same flush pacing across the whole job.
    The [DEADLINE] budget covers the batch: a sub the worker reaches
    after it answers [TIMEOUT 0] without being evaluated. Admission
    control happens once for the whole batch, and a full work queue
    makes it wait until its deadline rather than answering [BUSY] — a
    batch still unqueued then answers from the connection thread with
    nothing evaluated: [TIMEOUT 0] for every well-formed sub. A
    malformed or disallowed sub-request fails only its own slot.
    Batches larger than [max_batch] are consumed and answered with a
    single [ERR], framing intact.

    Resource limits: request lines are buffered up to [max_line_bytes]
    (overflow answers [ERR] with the rest of the line discarded), and
    at most [max_connections] connections are live at once (excess
    connections are answered [BUSY] and closed by the acceptor).
    [start] ignores [SIGPIPE] process-wide so a disconnecting client
    surfaces as a per-connection write error, not a fatal signal.

    Hot reload: the serving backend lives in an {!Fx_admin.Snapshot}.
    The admin verbs ([INGEST], [EVICT], [RELOAD]) build a replacement
    backend on the connection thread — serialized by one admin lock,
    off the worker path — and publish it with a single atomic swap.
    Workers pin the snapshot per job, so in-flight requests finish on
    the epoch they started on and no connection is ever dropped by a
    swap; the old backend is closed (its [close]) once its last pin
    drains. The answer cache is tied to the epoch
    ({!Fx_admin.Eval_cache}): a swap drops the entries the delta touched
    (every entry for [EVICT] and [RELOAD], only the touched tag pairs
    for a tag-bounded [INGEST] — see {!Fx_admin.Delta}) and keeps the
    rest warm, and an answer computed on a retired epoch is never
    stored. The epoch, per-epoch pin counts, swap-duration histogram,
    and cache counters ([flix_eval_cache_*]) are exported on
    [METRICS]. *)

type config = {
  host : string;            (** bind address, default ["127.0.0.1"] *)
  port : int;               (** 0 picks an ephemeral port; see {!port} *)
  workers : int;            (** worker domains, default 4 *)
  queue_capacity : int;     (** admission-control bound, default 64 *)
  deadline_ms : float;      (** per-request deadline, default 2000. *)
  max_results : int;        (** hard cap on [k], default 10_000 *)
  max_line_bytes : int;     (** request-line buffer cap, default 8192 *)
  max_connections : int;    (** live-connection cap, default 1024 *)
  max_batch : int;          (** [BATCH] sub-request cap, default 1024 *)
  max_ingest_lines : int;   (** per-document [INGEST] line cap, default 65_536 *)
  eval_cache_capacity : int;
      (** entries of the [EVALUATE] answer cache, for every backend;
          default 256, and 0 turns the cache off *)
}

val default_config : config

type flags = { timed_out : bool; partial : bool }
(** How an answer was degraded: cut by the deadline ([TIMEOUT]) or
    missing a failed shard's part ([PARTIAL]). *)

type stream = { next : unit -> Protocol.item option; flags : unit -> flags }
(** A pull stream of answer items, nearest first, and its degradation.
    The front pulls at most [k] items on one worker domain, stops
    pulling at the deadline, and reads [flags] after its last pull, so a
    backend that fetches inside [next] reports what those fetches
    lost. *)

type backend = {
  n_nodes : int;  (** node ids are [[0, n_nodes)]; the front rejects others *)
  resolve :
    deadline_ns:int64 ->
    doc:string ->
    anchor:string option ->
    (Protocol.item option, flags) result;
      (** The [RESOLVE] contract: [Ok (Some item)] for the node, [Ok None]
          for an unknown document or anchor, [Error] when the lookup
          itself was cut or lost a shard. *)
  connected :
    deadline_ns:int64 -> max_dist:int option -> int -> int -> (int option, flags) result;
      (** [CONNECTED] over in-range ids: [Ok] is the [DIST]/[NODIST]
          answer, [Error] an unreliable negative. *)
  descendants :
    deadline_ns:int64 -> tag:string option -> k:int -> max_dist:int option -> int -> stream;
      (** Descendants of an in-range node, the node itself excluded. *)
  ancestors :
    deadline_ns:int64 -> tag:string option -> k:int -> max_dist:int option -> int -> stream;
      (** Ancestors-or-self of an in-range node. *)
  evaluate :
    deadline_ns:int64 ->
    start_tag:string ->
    target_tag:string ->
    k:int ->
    max_dist:int option ->
    stream;
      (** [EVALUATE start_tag//target_tag]. *)
  stats : unit -> string list;  (** the [STATS] payload *)
  metric_lines : unit -> string list;
      (** extra Prometheus series appended to [METRICS] *)
  close : unit -> unit;
      (** Release the backend's resources. The server calls it exactly
          once per replaced backend, after its last pinned request
          finishes; it never closes the serving one (see {!stop}). *)
  flix : Fx_flix.Flix.t option;
      (** The index [INGEST]/[EVICT] extend; [None] refuses both. *)
}
(** What the worker pool evaluates against. Every function runs on a
    worker domain and must be safe to call from several at once;
    [deadline_ns] is the absolute {!Fx_util.Stopwatch.now_ns} deadline,
    and [k] (already capped) is the most items the front will pull.
    Tag names a backend does not know match nothing. *)

val memory : Fx_flix.Flix.t -> backend
(** Shared immutable indexes behind a fresh {!Fx_flix.Pee} per request. *)

val disk : hopi:Fx_index.Disk_hopi.t -> catalog:Fx_index.Catalog.t -> backend
(** Serve from a persistent {!Fx_index.Disk_hopi} deployment: the
    thread-safe pager lets every worker domain share one handle (and
    one buffer pool), and the {!Fx_index.Catalog} resolves document,
    anchor, and tag names without the collection. The pool's hit/miss
    counters are its [metric_lines]; [close] closes [hopi]. *)

type t

val start_backend :
  ?config:config -> ?reload:(unit -> (backend, string) result) -> backend -> t
(** Binds, listens, and spawns the acceptor thread and worker domains.
    Returns once the server accepts connections. Raises [Unix_error]
    when the port cannot be bound. [reload] builds the backend [RELOAD]
    swaps in (typically by re-reading the deployment the server was
    started from); it runs on the connection thread under the admin
    lock, and an [Error] answers [ERR] and leaves the serving snapshot
    untouched. Without it [RELOAD] answers [ERR]; [INGEST]/[EVICT]
    still work on a backend with a [flix]. The {e initial} backend's
    resources must outlive the server until a swap replaces it; {!stop}
    does not close the serving backend — close {!current_backend}
    after it. *)

val start : ?config:config -> Fx_flix.Flix.t -> t
(** [start flix] is [start_backend (memory flix)]. *)

val port : t -> int
(** The actual bound port — useful with [port = 0]. *)

val metrics : t -> Metrics.t

val current_backend : t -> backend
(** The serving backend right now — after reloads this is not the one
    passed to {!start_backend}. The caller that owns backend resources
    should close {e this} one at shutdown (replaced ones were already
    closed by the swap). *)

val epoch : t -> int
(** The serving snapshot's epoch (starts at 1, +1 per swap). *)

val stop : t -> unit
(** Stops accepting, drains queued jobs (every admitted request is
    answered), joins the worker domains, and closes all connections.
    Idempotent. *)
