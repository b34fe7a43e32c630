(** The portal closure: a precomputed exact distance oracle over the
    {!Portal_graph}, built on the weighted 2-hop labels of
    {!Fx_index.Two_hop.build_weighted} at shard-plan time.

    The coordinator reads cross-shard portal distances from it in
    memory, nearest first ({!nearest}). The labels hold exact global
    distances:
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

val distance_at : t -> int -> int -> int option
(** {!distance} between two node indexes: one label join. *)

val index : t -> int -> int option
(** The oracle's node index of a global id, [None] when the id is not
    a portal or document root. *)

val node : t -> int -> int
(** The global id at a node index. *)

(** {1 Nearest-first enumeration}

    When a closure is built or loaded, its labels are inverted once:
    every hub maps to the entry portals (link targets) whose in-label
    holds it and to the exit portals (link sources) whose out-label
    does, each list sorted by distance. *)

type toward =
  | Entries  (** forward: seeds' out-labels against entry portals' in-labels *)
  | Exits  (** backward: seeds' in-labels against exit portals' out-labels *)

val nearest :
  t -> toward -> ?on_pop:(unit -> unit) -> (int * int) list -> unit -> (int * int) option
(** [nearest t toward seeds] enumerates the target portals of [toward]
    reachable from (for [Entries]) or reaching (for [Exits]) any seed
    [(index, offset)], as [(index, d)] pairs in ascending exact
    distance [d = min (offset + distance)] over the seeds — one
    {!Fx_graph.Run_merge} over the seeds' label hubs, each hub's list
    walked once from its nearest seed, each target reported once, at
    its first pop. A seed that is itself a target is
    reported at its own offset, as [distance x x = 0]. [on_pop] runs once
    per queue pop, duplicates included. *)

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
