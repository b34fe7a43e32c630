(** Blocking client for the FliX query service — the counterpart of
    {!Server} used by the examples, the tests, the bench harness, and
    the sharded coordinator's per-shard connections.

    One request is in flight per client at a time; use one client per
    thread for concurrent load. All calls return [Error _] on protocol
    violations or transport failures; server-side [ERR] and [BUSY]
    surface as dedicated variants so callers can distinguish semantic
    rejection from a broken connection. *)

type t

type 'a reply =
  | Value of 'a
  | Busy            (** admission control rejected the request *)
  | Server_error of string  (** the server answered [ERR <msg>] *)

val connect : ?host:string -> ?recv_timeout:float -> port:int -> unit -> t
(** Raises [Unix.Unix_error] when the connection fails. [recv_timeout]
    (seconds) bounds every socket read; see {!set_recv_timeout}. *)

val set_recv_timeout : t -> float option -> unit
(** Bound each socket read to the given number of seconds
    ([SO_RCVTIMEO]; [None] restores blocking reads). When the timeout
    trips, the in-flight call returns [Error "connection closed
    mid-response"] instead of blocking forever — a hung shard cannot
    wedge the coordinator's connection pool. The connection must be
    {!close}d afterwards: a late response would desynchronize the
    framing. Silently a no-op on platforms without the socket option. *)

val close : t -> unit

val ping : t -> bool
(** [true] on [PONG]; [false] on any failure (never raises). *)

val sleep : t -> int -> (bool reply, string) result
(** Diagnostic verb; [Value true] when the nap completed, [Value false]
    when the deadline cut it short. *)

val descendants :
  t ->
  doc:string ->
  ?anchor:string ->
  ?tag:string ->
  ?max_dist:int ->
  k:int ->
  unit ->
  ((Protocol.item list * bool) reply, string) result
(** The items and whether the stream was cut off by the deadline. *)

val evaluate :
  t ->
  start_tag:string ->
  target_tag:string ->
  ?max_dist:int ->
  k:int ->
  unit ->
  ((Protocol.item list * bool) reply, string) result

val connected :
  t -> ?max_dist:int -> int -> int -> (int option reply, string) result

val stats : t -> (string list reply, string) result
val metrics : t -> (string list reply, string) result

val epoch : t -> (int reply, string) result
(** The server's serving snapshot epoch ([EPOCH]). *)

val evict : t -> string list -> (int reply, string) result
(** Remove documents by name; [Value e] is the new epoch. *)

val reload : t -> (int reply, string) result
(** Ask the server to re-read its deployment; [Value e] is the new
    epoch. *)

val ingest : t -> (string * string) list -> (int reply, string) result
(** [ingest t [(name, xml); ...]] sends one [INGEST] envelope (each
    document body is split on newlines into its [DOC] frame) and reads
    the answer; [Value e] is the new epoch after the swap. *)

val request :
  ?deadline_ms:int -> t -> Protocol.request -> (Protocol.response, string) result
(** Escape hatch: send any request (optionally with a [DEADLINE <ms>]
    envelope) and read one response. *)

val request_batch :
  ?deadline_ms:int ->
  t ->
  Protocol.request array ->
  on_response:(int -> Protocol.response -> unit) ->
  (unit, string) result
(** Pipelined [BATCH]: writes the header and every sub-request in one
    flush, then reads the [SUB]-tagged answers, delivering each through
    [on_response index response] as it arrives. On a transport
    failure mid-batch the already-delivered answers stand — the
    retrying caller ({!Fx_shard.Shard_client.call_many}) re-sends only
    the unanswered sub-requests. An empty array is a no-op. *)

val request_many :
  ?deadline_ms:int ->
  t ->
  Protocol.request array ->
  (Protocol.response array, string) result
(** {!request_batch} buffered: the [n] responses in request order, or
    the first transport/framing error. *)
