(** A fault-tolerant pooled connection to one shard server.

    The coordinator holds one of these per shard. Connections are
    persistent and pooled: a call borrows an idle connection (opening
    one when the pool is empty), runs one request/response exchange,
    and returns the connection to the pool — concurrent coordinator
    workers each get their own connection, and reuse keeps the fan-out
    off the connect path.

    The fault layer lives here. Every call carries the remaining
    deadline budget as both a [DEADLINE] envelope (so the shard stops
    working when the coordinator stops waiting) and a socket receive
    timeout with a little slack (so a {e hung} shard cannot wedge the
    pool — see {!Fx_server.Server_client.set_recv_timeout}). Transport
    failures are retried with doubling backoff on a fresh connection,
    up to two extra attempts and never past the deadline; items
    are buffered per attempt, so a retried call never delivers
    duplicates. Each failed attempt increments the shard's error
    counter ([flix_shard_errors_total] in the coordinator's metrics). *)

type t

val create :
  id:int -> host:string -> port:int -> batch_sizes:Fx_server.Metrics.Histogram.t -> unit -> t
(** Resolves [host] once (IPv4, [Unix.getaddrinfo]) but does not
    connect; the first {!call} does. A transport failure is retried
    twice, after 25 ms and then 50 ms; a read times out 0.25 s past
    the deadline budget. {!call_many} records the size of every
    [BATCH] round trip it sends (at most 512 sub-requests each) in
    [batch_sizes]. Raises [Invalid_argument] when [host] does not
    resolve. *)

val id : t -> int
val address : t -> string

val errors_total : t -> int
(** Failed attempts so far (transport errors and timeouts). *)

val rpcs_total : t -> int
(** Wire round trips so far — each {!call} attempt and each
    {!call_many} batch attempt counts one. *)

val subs_total : t -> int
(** Sub-requests carried by those round trips — a {!call} attempt
    counts one, a {!call_many} attempt counts its batch size. The
    [rpcs_total]/[subs_total] spread is the batching win, exported as
    [flix_shard_probe_rpcs_total] / [flix_shard_probe_subs_total]. *)

val call :
  ?deadline_ms:int ->
  t ->
  Fx_server.Protocol.request ->
  (Fx_server.Protocol.response, string) result
(** One request/response exchange. A stream answer carries its items
    inline, in arrival order, with flags that describe the trailer.
    [Error _] means the exchange failed even after retries; the shard
    should be treated as down for this request. *)

val call_many :
  ?deadline_ms:int ->
  t ->
  Fx_server.Protocol.request array ->
  (Fx_server.Protocol.response, string) result array
(** One pipelined [BATCH] exchange carrying every request, answered
    slot by slot — split into chunks of at most 512 sub-requests, each
    its own round trip, when the wave outgrows that cap. Retries re-batch
    only the still-unanswered slots — answers delivered before a
    transport failure stand and are never re-requested — with the same
    doubling backoff and deadline budget as {!call}. Slots the shard
    never answered come back [Error _]. An empty array is a no-op. *)

val close : t -> unit
(** Close pooled idle connections. In-flight calls on other threads
    finish (and then discard) their borrowed connections. *)
