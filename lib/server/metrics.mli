(** Server observability: lock-free counters and fixed-bucket
    histograms, rendered in Prometheus text exposition format.

    This is the only module that knows the exposition format: every
    other metrics source (the disk pool, the hot-reload plane, the
    coordinator) builds its lines from {!family} and {!Histogram}.

    All mutation is [Atomic] so workers on different domains and the
    per-connection threads can record without coordination; [render]
    reads a consistent-enough snapshot (Prometheus scrapes tolerate
    per-series skew). *)

val family :
  string -> help:string -> [ `Counter | `Gauge | `Histogram ] -> string list
(** [family name ~help kind] is the [# HELP]/[# TYPE] header of one
    metric family. *)

(** A fixed-bucket histogram: one [Atomic] counter per bucket, one for
    the sample count, and the sum as an integer in millionths of the
    observed unit, so {!observe} takes no lock. *)
module Histogram : sig
  type t

  val create : float array -> t
  (** Real-valued samples (milliseconds, seconds) under the given
      ascending upper bounds; [+Inf] is implicit. The sum renders with
      six decimals. *)

  val create_count : int array -> t
  (** Whole-number samples (a batch size) under the given ascending
      upper bounds; the sum renders as an integer. *)

  val observe : t -> float -> unit
  (** Record one sample into the first bucket whose bound is [>=] it. *)

  val count : t -> int
  (** Samples recorded so far. *)

  val render : t -> name:string -> labels:string -> string list
  (** The cumulative [name_bucket{labels,le="..."}] lines, then
      [name_sum] and [name_count]. [labels] (e.g. [verb="ping"]) leads
      every series' label set; [""] for none. Integral bounds render
      without decimals ([le="50"]), others in [%g] ([le="0.25"]). *)
end

type t

val create : unit -> t

val incr_requests : t -> verb:string -> unit
(** Count one received request ([flix_requests_total{verb=...}]).
    Unknown verbs are folded into ["other"] rather than dropped. *)

val incr_rejected : t -> unit
(** Count one admission-control rejection ([flix_rejected_total]). *)

val incr_timeouts : t -> verb:string -> unit
(** Count one deadline expiry ([flix_timeouts_total{verb=...}]). *)

val incr_errors : t -> unit
(** Count one [ERR] response ([flix_errors_total]). *)

val observe_ms : t -> verb:string -> float -> unit
(** Record one request duration into the verb's histogram
    ([flix_request_duration_ms]). *)

val requests_total : t -> verb:string -> int
val rejected_total : t -> int
val timeouts_total : t -> verb:string -> int
val errors_total : t -> int
val observations : t -> verb:string -> int
(** Raw counter reads for tests and the bench harness. *)

val register_collector : t -> (unit -> string list) -> unit
(** Register an extra metrics source — e.g. the buffer-pool counters of
    a disk deployment — whose lines [render] appends after the built-in
    series, in registration order. The callback runs on whichever
    thread serves METRICS, so it must be thread-safe. *)

val render : t -> string list
(** Prometheus text format, one line per entry — [# HELP]/[# TYPE]
    comments, counters, cumulative histogram buckets, then the output
    of every registered collector. *)
