(** The line-oriented wire protocol of the FliX query service.

    Requests are single lines of space-separated tokens; [-] stands for
    an absent optional field. Responses are one or more lines:

    {v
    request                                          response
    -------------------------------------------------------------------
    PING                                             PONG
    SLEEP <ms>                                       OK | TIMEOUT 0
    DESCENDANTS <doc> <anchor|-> <tag|-> <k> [max]   ITEM*, DONE <n> | TIMEOUT <n>
    NDESCENDANTS <node> <tag|-> <k> [max]            ITEM*, DONE <n> | TIMEOUT <n>
    ANCESTORS <node> <tag|-> <k> [max]               ITEM*, DONE <n> | TIMEOUT <n>
    CONNECTED <a> <b> [max]                          DIST <d> | NODIST
    EVALUATE <start_tag> <target_tag> <k> [max]      ITEM*, DONE <n> | TIMEOUT <n>
    RESOLVE <doc> <anchor|->                         ITEM <node> 0 0, DONE 1 | DONE 0
    STATS                                            LINES <n> then n raw lines
    METRICS                                          LINES <n> then n raw lines
    EPOCH                                            EPOCH <e>
    EVICT <doc> [<doc> ...]                          EPOCH <e> | ERR <message>
    RELOAD                                           EPOCH <e> | ERR <message>
    INGEST <n> then n document frames                EPOCH <e> | ERR <message>
    (any, queue full)                                BUSY
    (malformed)                                      ERR <message>
    v}

    Any request line may be prefixed with [DEADLINE <ms>] to override
    the server's default deadline for that request alone — the sharded
    coordinator uses it to propagate its remaining time budget to shard
    servers. Use {!parse_envelope} to observe the prefix;
    {!parse_request} accepts and discards it.

    Each [ITEM <node> <dist> <meta>] line carries one {!Pee.item}; the
    [DONE]/[TIMEOUT]/[PARTIAL] trailer carries the item count.
    [TIMEOUT] marks a result cut off by the request deadline; [PARTIAL]
    marks a complete-as-far-as-possible result degraded by a backend
    failure (a sharded deployment with a dead shard answers [PARTIAL]
    instead of failing the whole query). [SLEEP] is a diagnostic verb:
    it occupies a worker for the given number of milliseconds — tests
    use it to saturate the pool deterministically.

    [NDESCENDANTS] and [ANCESTORS] are node-addressed: they take a raw
    node id (like [CONNECTED]) instead of a [doc#anchor] name, which is
    how the coordinator chases cross-shard links without a catalog.
    [ANCESTORS] evaluates ancestors-{e or-self}: the start node itself
    is reported at distance 0 when it matches the tag filter, so
    "closest ancestor with tag [t]" includes the node being probed.
    [NDESCENDANTS] mirrors [DESCENDANTS] and excludes the start.

    {2 Batches}

    [BATCH <n>] (optionally prefixed [DEADLINE <ms> BATCH <n>]) opens a
    batch envelope: the next [n] lines are sub-requests, one per line,
    drawn from the probe verbs [CONNECTED], [NDESCENDANTS], [ANCESTORS],
    [RESOLVE] (and the diagnostic [SLEEP]) — see {!batch_allowed}. The
    server answers with exactly [n] sub-responses, each introduced by a
    [SUB <i>] line carrying the 0-based index of the sub-request it
    answers, followed by that sub-request's ordinary response lines. The
    server writes them in index order; a client matches them by the
    index. A malformed or disallowed sub-request line fails only its own
    slot ([SUB <i>] then [ERR ...]); the batch framing stays intact. The
    [DEADLINE] budget covers the whole batch: sub-requests not yet
    started when it expires answer [TIMEOUT 0]. A batch is admitted as
    one request, and a queue-full server makes it wait rather than
    answering [BUSY] — a batch may legitimately be larger than the
    server's work queue.

    {2 Administration}

    The admin verbs drive hot reload (see {!Fx_admin.Snapshot}). [EPOCH]
    reports the serving snapshot's epoch. [INGEST <n>] opens an ingest
    envelope: the next lines are [n] document frames, each a
    [DOC <name> <lines>] header followed by exactly [lines] raw XML
    lines; the server parses and indexes them off the request path and
    answers [EPOCH <e>] once the new snapshot is published (or a single
    [ERR] line after consuming the whole envelope — framing stays
    intact). [EVICT <doc>...] removes documents by name; [RELOAD]
    re-reads the deployment the server was started from. Every
    successful admin mutation answers the {e new} epoch. In-flight
    requests finish on the epoch they started on; no connection is
    dropped by a swap. *)

type request =
  | Ping
  | Stats
  | Metrics
  | Sleep of int  (** milliseconds *)
  | Descendants of {
      doc : string;
      anchor : string option;
      tag : string option;
      k : int;
      max_dist : int option;
    }
  | Node_descendants of { node : int; tag : string option; k : int; max_dist : int option }
  | Ancestors of { node : int; tag : string option; k : int; max_dist : int option }
  | Connected of { a : int; b : int; max_dist : int option }
  | Evaluate of {
      start_tag : string;
      target_tag : string;
      k : int;
      max_dist : int option;
    }
  | Resolve of { doc : string; anchor : string option }
  | Evict of string list  (** document names, non-empty *)
  | Reload
  | Epoch_query

type item = { node : int; dist : int; meta : int }

type response =
  | Pong
  | Ok_done                                        (** [SLEEP] completed *)
  | Busy                                           (** admission control *)
  | Err of string
  | Dist of int option
  | Items of { items : item list; timed_out : bool; partial : bool }
  | Lines of string list                           (** [STATS] / [METRICS] payload *)
  | Epoch of int                                   (** admin-plane answer *)

type envelope = { deadline_ms : int option; req : request }
(** A request with its optional per-request deadline override. *)

val verb : request -> string
(** Lower-case verb name, the metrics label ("ping", "descendants", ...).
    [Node_descendants] shares the "descendants" label — same query
    shape, different addressing. *)

val pool_bound : request -> bool
(** Whether the request must go through the worker pool. [Ping] and
    [Metrics] are answered inline so the observability plane stays
    responsive on a saturated server. *)

val batch_allowed : request -> bool
(** Whether the verb may appear as a [BATCH] sub-request. The batch
    plane exists for cheap point probes ([CONNECTED], [NDESCENDANTS],
    [ANCESTORS], [RESOLVE]); the heavyweight streaming verbs and the
    inline observability verbs are excluded. [SLEEP] is allowed as the
    diagnostic stand-in for a slow probe. *)


val parse_request : string -> (request, string) result
(** Parse one request line; a [DEADLINE <ms>] prefix is accepted and
    discarded. The error string is human-readable and is sent back
    verbatim as [ERR <message>]. *)

val parse_envelope : string -> (envelope, string) result
(** Like {!parse_request}, but reports the [DEADLINE] prefix. *)

val request_line : request -> string
(** Render a request; [parse_request (request_line r) = Ok r]. *)

val envelope_line : ?deadline_ms:int -> request -> string
(** [request_line] with an optional [DEADLINE <ms>] prefix. *)

type framed =
  | Single of envelope
  | Batch of { deadline_ms : int option; n : int }
  | Ingest of { n : int }
(** A parsed request header line: a plain envelope, a [BATCH] header
    announcing [n] sub-request lines, or an [INGEST] header announcing
    [n] document frames. *)

val parse_framed : string -> (framed, string) result
(** Like {!parse_envelope}, but recognizes the [BATCH <n>] header
    (with or without a [DEADLINE <ms>] prefix; [n] must be positive)
    and the [INGEST <n>] header. *)

val batch_line : ?deadline_ms:int -> int -> string
(** The [BATCH <n>] header line, optionally deadline-prefixed. *)

val sub_line : int -> string
(** The [SUB <i>] line introducing sub-response [i]. *)

val ingest_line : int -> string
(** The [INGEST <n>] header line. *)

val doc_line : name:string -> n_lines:int -> string
(** The [DOC <name> <lines>] frame header of one ingested document. *)

val parse_doc_line : string -> (string * int, string) result
(** Parse a [DOC] frame header into [(name, n_lines)]. *)

val item_line : item -> string
(** One [ITEM <node> <dist> <meta>] wire line. *)

val add_item_line : Buffer.t -> item -> unit
(** {!item_line} appended to a buffer, without the newline. *)

val items_trailer : count:int -> timed_out:bool -> partial:bool -> string
(** The stream trailer: [TIMEOUT n] when [timed_out], else [PARTIAL n]
    when [partial], else [DONE n]. *)

val response_lines : response -> string list
(** Render a response as wire lines, in order. *)

val read_response : (unit -> string option) -> (response, string) result
(** [read_response read_line] parses one full response by pulling lines
    from [read_line] ([None] = connection closed). *)

val read_batch_responses :
  (unit -> string option) ->
  n:int ->
  on_response:(int -> response -> unit) ->
  (unit, string) result
(** [read_batch_responses read_line ~n ~on_response] reads the [n]
    [SUB]-tagged answers of a batch, delivering each through
    [on_response index response] as soon as its last line is read, by
    its [SUB] index whatever the order the answers arrive in — so a
    transport failure mid-batch still leaves the caller with every
    answer delivered so far. Rejects out-of-range and duplicate
    indexes. *)
