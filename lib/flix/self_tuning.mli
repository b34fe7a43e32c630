(** Query-load monitoring and configuration advice — the paper's
    self-tuning sketch (Section 7): "If it turns out in the query
    evaluation engine that most queries have to follow many links, then
    the choice of meta documents is no longer optimal for the current
    query load. In this case, the build phase should start again,
    taking statistics on the query load into account."

    A monitor wraps a {!Pee.t} and records, per query, how much queue
    traffic (link hops) and how many entry drops the evaluation needed
    relative to the results it produced. {!recommend} turns the
    aggregate into a configuration suggestion; callers rebuild with
    {!Flix.build} when they accept it. *)

type t

val create : ?window:int -> Pee.t -> t
(** Keeps statistics over the last [window] (default 128) queries. *)

val descendants :
  ?tag:int -> ?max_dist:int -> t -> start:int -> Pee.item Result_stream.t
(** Instrumented {!Pee.descendants}. Partial consumption is accounted
    too — a query the client abandons early still recorded the work it
    caused up to that point. *)

type summary = {
  queries : int;
  mean_results : float;
  mean_link_hops : float;    (** queue insertions per query (the start
                                 element is not one) *)
  mean_entry_drops : float;
  link_pressure : float;     (** link hops per produced result; the
                                 "most queries have to follow many
                                 links" signal *)
}

val summary : t -> summary

type recommendation =
  | Keep
  | Rebuild of Meta_builder.config

val recommend : ?pressure_threshold:float -> t -> current:Meta_builder.config -> recommendation
(** Suggest a coarser meta-document layout when {!summary.link_pressure}
    exceeds the threshold (default 2.0): Naive escalates to Unconnected
    HOPI, Maximal-PPO to Hybrid, Unconnected-HOPI/Hybrid double their
    partition bound. Below the threshold: {!Keep}. At least 16 observed
    queries are required before anything but {!Keep} is returned. *)
