(** The concurrent FliX query service.

    [start flix] binds a TCP socket and serves the {!Protocol} over it.
    Since {!Fx_flix.Flix.t} is immutable after [build], serving is a
    shared-read problem: each worker runs on its own OCaml 5 [Domain]
    with a private {!Fx_flix.Pee} evaluator over the shared index, so
    queries proceed truly in parallel.

    Request flow: a per-connection thread parses request lines and
    enqueues jobs onto a bounded {!Work_queue} ([BUSY] when full —
    admission control); a worker domain evaluates the job under the
    per-request deadline.

    One request front: every job passes through the same worker-side
    front whatever the {!backend}. The front answers [PING], [METRICS]
    and [SLEEP], refuses admin verbs, caps [k] at [max_results], and
    runs every [EVALUATE] through the one answer cache — a hit replays
    the cached items; a miss streams the backend's answer and stores it
    only when it is clean (no [TIMEOUT] or [PARTIAL] trailer). A backend
    contributes only its verb-specific evaluation, its [STATS] lines, and
    its queued-expiry rule (below), and all backends share the
    {!unknown_doc_err} and {!node_range_err} texts.

    Stream verbs are flushed incrementally: the
    worker hands each [ITEM] to the connection thread as it is
    produced, and the connection thread writes and flushes it
    immediately, so a downstream consumer (e.g. the sharded
    coordinator's merge) sees results before the stream ends. The
    trailer ([DONE]/[TIMEOUT]/[PARTIAL]) follows once the worker
    finishes. [PING] and [METRICS] are answered inline, bypassing the
    pool, so the observability plane stays responsive on a saturated
    server.

    Deadlines default to [config.deadline_ms] and can be overridden per
    request with the [DEADLINE <ms>] envelope prefix. They bound the
    verbs that stream results ([DESCENDANTS], [EVALUATE], ...) and
    [SLEEP]; single-probe verbs ([CONNECTED], [STATS]) run to
    completion once started — their work is already bounded. The
    queued-expiry rule is the backend's: a job whose deadline expired
    while it sat in the queue is answered [TIMEOUT 0] without being
    evaluated — by the in-memory backend for [STATS]/[CONNECTED]/
    [RESOLVE], by the disk backend for every pool verb, and not at all
    by a [Custom] backend — so an overloaded worker pool does not
    amplify its own backlog. An [EVALUATE] cache hit is replayed
    whatever its deadline.

    Batches: a [BATCH <n>] header fans its [n] sub-requests across the
    worker pool as [n] independent jobs and answers each with a
    [SUB <i>]-tagged response as it completes (completion order, not
    request order) — one round trip for a whole probe wave. The
    [DEADLINE] budget covers the batch: sub-requests still queued when
    it expires answer [TIMEOUT 0]. Admission control happens once for
    the whole batch, so a full work queue backpressures sub-request
    dispatch rather than answering [BUSY] per overflowing sub — a batch
    may legitimately exceed [queue_capacity]. A malformed or
    disallowed sub-request fails only
    its own slot. Batches larger than [max_batch] are consumed and
    answered with a single [ERR], framing intact.

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
    swap; the old backend is retired (see {!admin}) once its last pin
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

type custom = {
  custom_eval :
    emit:(Protocol.item -> unit) ->
    deadline_ns:int64 ->
    Protocol.request ->
    Protocol.response;
      (** Evaluate one pool-bound request. Stream verbs push their
          items through [emit] — each is flushed to the client as an
          [ITEM] line immediately — and return
          [Items { items = []; ... }] whose flags select the trailer.
          [deadline_ns] is the absolute {!Fx_util.Stopwatch.now_ns}
          deadline. Runs on a worker domain: it must be safe to call
          from several domains at once. *)
  custom_stats : unit -> string list;
      (** The [STATS] payload. *)
}

type backend =
  | In_memory of Fx_flix.Flix.t
      (** The original regime: shared immutable indexes, a private
          {!Fx_flix.Pee} evaluator per worker domain. *)
  | On_disk of { hopi : Fx_index.Disk_hopi.t; catalog : Fx_index.Catalog.t }
      (** Serve from a persistent {!Fx_index.Disk_hopi} deployment: the
          thread-safe pager lets every worker domain share one handle
          (and one buffer pool), and the {!Fx_index.Catalog} resolves
          document, anchor, and tag names without the collection. The
          deployment's pool hit/miss counters are exported on the
          [METRICS] endpoint. *)
  | Custom of custom
      (** Delegate pool-bound requests to an external evaluator while
          keeping the server's socket handling, admission control,
          deadlines, metrics, incremental flushing, and the request
          front (with its [EVALUATE] cache). The sharded scatter-gather
          coordinator ({!Fx_shard.Coordinator}) plugs in here; it
          receives neither [PING]/[METRICS]/[SLEEP] nor admin verbs, and
          [STATS] goes to [custom_stats]. *)

type admin = {
  admin_reload : unit -> (backend, string) result;
      (** Build a fresh backend for [RELOAD] (typically by re-reading
          the deployment the server was started from). Runs on the
          connection thread under the admin lock; an [Error] answers
          [ERR] and leaves the serving snapshot untouched. *)
  admin_retire : backend -> unit;
      (** Called exactly once per replaced backend, after its last
          pinned request finishes — the place to close an [On_disk]
          deployment handle. Never called while the backend can still
          serve a request. *)
}
(** The reload hooks wired in by the process that owns the backend's
    resources ({!Fx_bin} deployments, file handles). Without them
    [RELOAD] answers [ERR]; [INGEST]/[EVICT] still work on the
    in-memory backend (the old {!Fx_flix.Flix.t} needs no cleanup). *)

val unknown_doc_err : string -> string option -> Protocol.response
(** [unknown_doc_err doc anchor]: the [ERR] every backend answers for a
    [DESCENDANTS] start that names no known document or anchor. *)

val node_range_err : int -> Protocol.response
(** [node_range_err n]: the [ERR] every backend answers for a node id
    outside [[0, n)]. *)

type t

val start_backend : ?config:config -> ?admin:admin -> backend -> t
(** Binds, listens, and spawns the acceptor thread and worker domains.
    Returns once the server accepts connections. Raises [Unix_error]
    when the port cannot be bound. The {e initial} backend (and for
    [On_disk], the deployment handle) must outlive the server until a
    swap retires it; {!stop} does not close it — use
    {!current_backend} to find what is live at shutdown. *)

val start : ?config:config -> Fx_flix.Flix.t -> t
(** [start flix] is [start_backend (In_memory flix)]. *)

val port : t -> int
(** The actual bound port — useful with [port = 0]. *)

val metrics : t -> Metrics.t
val config : t -> config

val current_backend : t -> backend
(** The serving backend right now — after reloads this is not the one
    passed to {!start_backend}. The caller that owns backend resources
    should close {e this} one at shutdown (retired ones were already
    handed to [admin_retire]). *)

val epoch : t -> int
(** The serving snapshot's epoch (starts at 1, +1 per swap). *)

val stop : t -> unit
(** Stops accepting, drains queued jobs (every admitted request is
    answered), joins the worker domains, and closes all connections.
    Idempotent. *)
