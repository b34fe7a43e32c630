(** The portal closure: a precomputed exact distance oracle over the
    {!Portal_graph}, built on the weighted 2-hop labels of
    {!Fx_index.Two_hop.build_weighted} at shard-plan time.

    The coordinator answers every cross-shard portal distance with one
    in-memory label join. The labels hold exact global distances:
    every inter-shard path decomposes into within-shard segments joined
    by unit-weight cross links, which is exactly the weighted portal
    graph the labels compress (see DESIGN.md). Document roots are in
    the oracle too (anchors), so root-anchored queries skip even their
    exit probes.

    The closure ships inside the [FXSHARDMAN2] manifest, which every
    [--build-shards] run writes; a manifest without one is refused.
    The [epoch] stamp — {!Shard_plan.digest} of the plan the closure
    was built for — guards against joining a closure to a different
    plan. *)

type t

val build :
  plan:Shard_plan.t ->
  local_dist:(shard:int -> a:int -> b:int -> int option) ->
  t
(** Build the portal graph with [local_dist] (see {!Portal_graph.build})
    and compress it into 2-hop labels. Cost is one [local_dist] call
    per (source, exit) pair per shard plus the labeling itself. *)

val distance : t -> int -> int -> int option
(** Exact global distance between two oracle nodes (global ids), [None]
    when unreachable or when either id is not in the oracle. *)

val epoch : t -> int
(** The {!Shard_plan.digest} of the plan this closure was built for. *)

val matches : t -> Shard_plan.t -> bool
(** [epoch t = Shard_plan.digest plan] — joining a closure against a
    plan it does not match is never exact, so callers must refuse it. *)

val n_nodes : t -> int
val label_entries : t -> int
val build_seconds : t -> float
(** Build wall time as recorded at build, surviving (de)serialization —
    the [flix_closure_build_seconds] gauge reports it on load. *)

val describe : t -> string

(** {1 The versioned manifest} *)

val save_manifest : path:string -> plan:Shard_plan.t -> t -> unit
(** Write the [FXSHARDMAN2] manifest: the plan body plus the closure
    section. Raises [Sys_error] on I/O failure. *)

val load_manifest : string -> Shard_plan.t * t
(** Load an [FXSHARDMAN2] manifest: the plan and its closure. The
    closure is returned as stored; {!matches} tells whether it was
    built for this plan.
    @raise Fx_util.Codec.Corrupt on mangled or truncated input
    (including truncation inside the closure section), and — with a
    message saying to rebuild with [--build-shards] — on any other
    file format (such as a v1 manifest) and on a manifest saved
    without a closure.
    @raise Sys_error if the file cannot be read. *)
