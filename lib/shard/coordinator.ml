module P = Fx_server.Protocol
module Server = Fx_server.Server
module Metrics = Fx_server.Metrics
module PQ = Fx_graph.Priority_queue
module Stopwatch = Fx_util.Stopwatch

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* A cross-shard link with both endpoints located once at create time;
   [dst_ci] is the target's portal-closure index. *)
type located_link = {
  src : int;  (* global *)
  dst : int;  (* global *)
  dst_tag : string;
  src_shard : int;
  src_local : int;
  dst_shard : int;
  dst_local : int;
  dst_ci : int;
}

(* Each memoized probe table is reset when it reaches this many
   entries; a leg set counts one entry per leg, plus one. *)
let probe_cache_limit = 65536

(* A deduplicated portal, located once at create time, with its
   portal-closure index [ci]. [tag] is the node's tag name for entry
   portals (link targets emit themselves into matching streams) and
   [""] for exit portals, which never do. *)
type portal = { g : int; shard : int; local : int; tag : string; ci : int }

type t = {
  plan : Shard_plan.t;
  shards : Shard_client.t array;
  addrs : (string * int) list;  (* the addresses [shards] was built from *)
  links : located_link array;
  (* memoized probe results; shard indexes are immutable so entries
     never go stale. One mutex guards every table (probe volume, not
     contention, is the cost being managed here). *)
  cache_m : Mutex.t;
  (* exit legs and same-shard direct probes: shard, a, b (local) *)
  conn_cache : (int * int * int, int option) Hashtbl.t;
  (* Leg sets: by global target node, the (closure index, distance) of
     every entry portal of its shard that reaches it, ascending by
     closure index. Stored whole or not at all (see [plan_legs]), and
     [leg_entries] counts what they hold. *)
  leg_cache : (int, (int * int) array) Hashtbl.t;
  mutable leg_entries : int;
  start_cache : (int * int * string, int option) Hashtbl.t;  (* shard, node, tag *)
  (* Entry-portal streams, cached raw — local
     ids, no offset — so one fetch serves every start that reaches the
     portal. Keyed by everything the shard sees (shard, local, tag, k,
     remaining); only successful fetches are stored. *)
  stream_cache : (int * int * string option * int * int option, P.item list) Hashtbl.t;
  (* The portal closure; [create] refuses one built for another plan. *)
  closure : Portal_closure.t;
  (* Every distinct link target / link source, located once, by shard
     and by closure index. *)
  entries_by_shard : portal array array;
  exits_by_shard : portal array array;
  entry_at : portal option array;
  exit_at : portal option array;
  (* Closure index of every global id the portal graph carries as a
     source (doc roots and entry portals): closure labels from these
     nodes are exact, so a query anchored here skips its exit probes.
     Immutable after create. *)
  source_index : (int, int) Hashtbl.t;
  closure_lookups : int Atomic.t;
  fanout : Metrics.Histogram.t;  (* ms per coordinator-to-shard call *)
  batch_sizes : Metrics.Histogram.t;  (* sub-requests per BATCH round trip *)
}

let create ~closure ~plan ~shards () =
  let n = Shard_plan.n_shards plan in
  if List.length shards <> n then
    invalid_arg
      (Printf.sprintf "Coordinator.create: plan has %d shards, got %d addresses" n
         (List.length shards));
  if not (Portal_closure.matches closure plan) then
    invalid_arg
      (Printf.sprintf
         "Coordinator.create: portal closure epoch %d does not match plan digest %d; \
          rebuild with --build-shards"
         (Portal_closure.epoch closure) (Shard_plan.digest plan));
  (* A matching closure carries every link endpoint and doc root. *)
  let ci g =
    match Portal_closure.index closure g with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Coordinator.create: node %d not in the closure" g)
  in
  let batch_sizes = Metrics.Histogram.create_count [| 1; 2; 4; 8; 16; 32; 64; 128; 256 |] in
  let clients =
    Array.of_list
      (List.mapi
         (fun i (host, port) -> Shard_client.create ~id:i ~host ~port ~batch_sizes ())
         shards)
  in
  let links =
    Array.map
      (fun (l : Shard_plan.cross_link) ->
        let src_shard, src_local = Shard_plan.locate plan l.src in
        let dst_shard, dst_local = Shard_plan.locate plan l.dst in
        { src = l.src; dst = l.dst; dst_tag = l.dst_tag; src_shard; src_local;
          dst_shard; dst_local; dst_ci = ci l.dst })
      (Shard_plan.cross_links plan)
  in
  (* Per shard ascending by global id, and by closure index. *)
  let index_portals proj tag =
    let by_shard = Array.make n [] in
    let at = Array.make (Portal_closure.n_nodes closure) None in
    Array.iter
      (fun l ->
        let g, shard, local = proj l in
        let i = ci g in
        if Option.is_none at.(i) then begin
          let p = { g; shard; local; tag = tag l; ci = i } in
          at.(i) <- Some p;
          by_shard.(shard) <- p :: by_shard.(shard)
        end)
      links;
    let sorted ps = Array.of_list (List.sort (fun p q -> Int.compare p.g q.g) ps) in
    (Array.map sorted by_shard, at)
  in
  let entries_by_shard, entry_at =
    index_portals (fun l -> (l.dst, l.dst_shard, l.dst_local)) (fun l -> l.dst_tag)
  in
  let exits_by_shard, exit_at =
    index_portals (fun l -> (l.src, l.src_shard, l.src_local)) (fun _ -> "")
  in
  let source_index = Hashtbl.create 256 in
  Array.iter (fun g -> Hashtbl.replace source_index g (ci g)) (Shard_plan.doc_roots plan);
  Array.iter (fun (l : located_link) -> Hashtbl.replace source_index l.dst l.dst_ci) links;
  {
    plan;
    shards = clients;
    addrs = shards;
    links;
    cache_m = Mutex.create ();
    conn_cache = Hashtbl.create 256;
    leg_cache = Hashtbl.create 256;
    leg_entries = 0;
    start_cache = Hashtbl.create 256;
    stream_cache = Hashtbl.create 256;
    closure;
    entries_by_shard;
    exits_by_shard;
    entry_at;
    exit_at;
    source_index;
    closure_lookups = Atomic.make 0;
    fanout =
      Metrics.Histogram.create
        [| 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0; 2500.0 |];
    batch_sizes;
  }

let close t = Array.iter Shard_client.close t.shards

let shard_errors_total t =
  Array.fold_left (fun acc s -> acc + Shard_client.errors_total s) 0 t.shards

let probe_rpcs_total t =
  Array.fold_left (fun acc s -> acc + Shard_client.rpcs_total s) 0 t.shards

let probe_subs_total t =
  Array.fold_left (fun acc s -> acc + Shard_client.subs_total s) 0 t.shards

let closure_lookups_total t = Atomic.get t.closure_lookups

(* --- per-request context --------------------------------------------- *)

(* Degradation flags are atomics because the EVALUATE phase-1 fan-out
   sets them from per-shard threads. *)
type ctx = { deadline_ns : int64; partial : bool Atomic.t; timed_out : bool Atomic.t }

let make_ctx deadline_ns =
  { deadline_ns; partial = Atomic.make false; timed_out = Atomic.make false }

let remaining_ms ctx =
  Int64.to_int (Int64.div (Int64.sub ctx.deadline_ns (Stopwatch.now_ns ())) 1_000_000L)

(* Collapse the transport/server failure planes into the degradation
   flags: [None] means the shard's contribution is lost ([partial]) —
   the response degrades rather than fails, which is the whole point of
   sharded fault tolerance. Successful answers come back as
   [(items, response-with-empty-items)], the same shape whether the
   exchange was a single call or a batch slot, so [inline_items] folds
   the items [Shard_client.call] splits off back into the response. *)
let inline_items (items, resp) =
  match resp with
  | P.Items { timed_out; partial; _ } -> P.Items { items; timed_out; partial }
  | resp -> resp

let classify ctx = function
  | Error _ ->
      Atomic.set ctx.partial true;
      None
  | Ok (P.Busy | P.Err _) ->
      (* The shard answered but refused or failed the request: its
         contribution is lost all the same. *)
      Atomic.set ctx.partial true;
      None
  | Ok (P.Items { items; timed_out; partial }) ->
      if timed_out then Atomic.set ctx.timed_out true;
      if partial then Atomic.set ctx.partial true;
      Some (items, P.Items { items = []; timed_out; partial })
  | Ok resp -> Some ([], resp)

(* One fan-out call. *)
let shard_call t ctx shard req =
  let left = remaining_ms ctx in
  if left <= 0 then begin
    Atomic.set ctx.timed_out true;
    None
  end
  else begin
    let sw = Stopwatch.start () in
    let result = Shard_client.call ~deadline_ms:left t.shards.(shard) req in
    Metrics.Histogram.observe t.fanout (Stopwatch.elapsed_ms sw);
    classify ctx (Result.map inline_items result)
  end

(* Run one shard's share of a probe wave as pipelined BATCH round
   trips ([Shard_client.call_many] splits and retries it). *)
let exec_shard t ctx shard reqs =
  let n = Array.length reqs in
  let out = Array.make n None in
  let left = remaining_ms ctx in
  if left <= 0 then Atomic.set ctx.timed_out true
  else begin
    let sw = Stopwatch.start () in
    let results = Shard_client.call_many ~deadline_ms:left t.shards.(shard) reqs in
    Metrics.Histogram.observe t.fanout (Stopwatch.elapsed_ms sw);
    Array.iteri (fun i r -> out.(i) <- classify ctx r) results
  end;
  out

(* --- memoized probes -------------------------------------------------- *)

let cache_find t table key =
  with_lock t.cache_m (fun () -> Hashtbl.find_opt table key)

let cache_store t table key v =
  with_lock t.cache_m (fun () ->
      if Hashtbl.length table >= probe_cache_limit then Hashtbl.reset table;
      Hashtbl.replace table key v)

(* A leg set can hold a thousand legs, so the leg-set table is bounded
   by the legs it holds, not by its sets. *)
let store_legs t g legs =
  let size legs = 1 + Array.length legs in
  with_lock t.cache_m (fun () ->
      if t.leg_entries + size legs > probe_cache_limit then begin
        Hashtbl.reset t.leg_cache;
        t.leg_entries <- 0
      end;
      Option.iter
        (fun old -> t.leg_entries <- t.leg_entries - size old)
        (Hashtbl.find_opt t.leg_cache g);
      Hashtbl.replace t.leg_cache g legs;
      t.leg_entries <- t.leg_entries + size legs)

(* --- probe waves ------------------------------------------------------ *)

(* One wave of shard work — every probe a request can issue before it
   needs their answers — accumulated probe by probe and fired as one
   batch per shard. Each entry pairs a request with the closure
   that consumes its (classified) answer; [run_plan] executes the wire
   calls on per-shard threads but runs every [apply] sequentially on
   the calling thread, so the closures mutate the plan, the caches and
   stream accumulators without any locking of their own. *)
type wave_plan = {
  per_shard : (P.request * ((P.item list * P.response) option -> unit)) list array;
  (* The request's own probe answers: shared-cache hits are copied in
     when a probe is planned and wire answers recorded as they arrive.
     The joins read only these, so a reset of a shared table — even one
     this wave's own stores trigger — cannot lose an answer between its
     store and its read. *)
  conn : (int * int * int, int option) Hashtbl.t;
  start : (int * int * string, int option) Hashtbl.t;
  (* probes already queued this wave — several joins can ask for the
     same segment distance *)
  queued_conn : (int * int * int, unit) Hashtbl.t;
  queued_start : (int * int * string, unit) Hashtbl.t;
}

let new_plan t =
  {
    per_shard = Array.make (Array.length t.shards) [];
    conn = Hashtbl.create 16;
    start = Hashtbl.create 8;
    queued_conn = Hashtbl.create 16;
    queued_start = Hashtbl.create 8;
  }

let plan_add plan shard req apply =
  plan.per_shard.(shard) <- (req, apply) :: plan.per_shard.(shard)

(* Plan one memoized probe: an answer already in this wave or in the
   shared [cache] is copied into [answers]; otherwise the probe is
   queued (once per wave), and its answer — when [answer_of] accepts
   the reply — lands in both. *)
let plan_probe plan t ~cache ~answers ~queued ~shard key req answer_of =
  if not (Hashtbl.mem answers key || Hashtbl.mem queued key) then
    match cache_find t cache key with
    | Some v -> Hashtbl.replace answers key v
    | None ->
        Hashtbl.replace queued key ();
        plan_add plan shard req (fun reply ->
            match answer_of reply with
            | Some v ->
                Hashtbl.replace answers key v;
                cache_store t cache key v
            | None -> ())

(* Queue a within-shard distance probe unless it is trivial, known, or
   already part of this wave. Probes carry no max_dist so one cache
   entry serves every request; readers prune. A failed or cut-off probe
   stays unrecorded, so a later request re-asks once the shard
   recovers. *)
let plan_conn plan t ~shard ~a ~b =
  if a <> b then
    plan_probe plan t ~cache:t.conn_cache ~answers:plan.conn ~queued:plan.queued_conn
      ~shard (shard, a, b)
      (P.Connected { a; b; max_dist = None })
      (function Some (_, P.Dist d) -> Some d | Some _ | None -> None)

(* The final legs into global node [g] ([local] on [shard]) as a leg
   set: a cached one costs one lookup. Otherwise one probe per entry
   portal of the shard rides [plan], and the set read once the plan has
   run is stored only when every probe answered cleanly — a failed or
   cut-off probe would make a missing leg look like an unreachable
   entry. Entries are sorted by global id, and so by closure index,
   which keeps the set sorted for [leg_of]. Readers hold the immutable
   array, so a reset of the shared table cannot lose an answer. *)
let plan_legs plan t ~g ~shard ~local =
  match cache_find t t.leg_cache g with
  | Some legs -> fun () -> legs
  | None ->
      let entries = t.entries_by_shard.(shard) in
      (* [None] until the entry's probe answers [DIST]. *)
      let dists = Array.make (Array.length entries) None in
      Array.iteri
        (fun i (e : portal) ->
          if e.local = local then dists.(i) <- Some (Some 0)
          else
            plan_add plan shard
              (P.Connected { a = e.local; b = local; max_dist = None })
              (function Some (_, P.Dist d) -> dists.(i) <- Some d | Some _ | None -> ()))
        entries;
      fun () ->
        let legs = ref [] in
        for i = Array.length entries - 1 downto 0 do
          match dists.(i) with
          | Some (Some d) -> legs := (entries.(i).ci, d) :: !legs
          | Some None | None -> ()
        done;
        let legs = Array.of_list !legs in
        if Array.for_all Option.is_some dists then store_legs t g legs;
        legs

(* The leg of the entry portal with closure index [ci], by binary
   search over a leg set. *)
let leg_of legs ci =
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let c, d = legs.(mid) in
      if c = ci then Some d else if c < ci then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length legs)

(* Queue a nearest-start probe: distance from the closest [tag]-named
   node above [node] (ancestors-or-self) within its shard. *)
let plan_start plan t ~shard ~node ~tag =
  plan_probe plan t ~cache:t.start_cache ~answers:plan.start ~queued:plan.queued_start
    ~shard (shard, node, tag)
    (P.Ancestors { node; tag = Some tag; k = 1; max_dist = None })
    (function
      | Some (it :: _, _) -> Some (Some it.P.dist)
      | Some ([], P.Items { timed_out = false; partial = false; _ }) ->
          (* Only a clean empty answer is a real negative: an empty
             TIMEOUT/PARTIAL answer must stay unrecorded or a slow probe
             would poison the cache with a false "no start above". *)
          Some None
      | Some _ | None -> None)

(* Fire the wave: one batch per shard, shards in parallel, then the
   applies in order on this thread. A shard thread that dies before
   its answers are in fails every slot of its shard, as a lost shard
   does, so the request degrades to PARTIAL instead of reading those
   segments as unreachable. *)
let run_plan t ctx plan =
  let groups = ref [] in
  Array.iteri
    (fun shard entries ->
      if entries <> [] then groups := (shard, Array.of_list (List.rev entries)) :: !groups)
    plan.per_shard;
  let apply entries out = Array.iteri (fun i r -> snd entries.(i) r) out in
  match !groups with
  | [] -> ()
  | [ (shard, entries) ] ->
      (* One shard: no thread hop needed. *)
      apply entries (exec_shard t ctx shard (Array.map fst entries))
  | groups ->
      let running =
        List.map
          (fun (shard, entries) ->
            let out = ref None in
            let th =
              Thread.create
                (fun () -> out := Some (exec_shard t ctx shard (Array.map fst entries)))
                ()
            in
            (th, entries, out))
          groups
      in
      List.iter (fun (th, _, _) -> Thread.join th) running;
      List.iter
        (fun (_, entries, out) ->
          apply entries
            (match !out with
            | Some out -> out
            | None -> Array.map (fun _ -> classify ctx (Error "shard thread failed")) entries))
        running

(* Readers of the plan's answers for the joins that follow [run_plan].
   An absent entry means the probe failed this wave (the degradation
   flags are already set); treat the segment as unreachable. *)
let conn_dist plan ~shard ~a ~b =
  if a = b then Some 0 else Option.join (Hashtbl.find_opt plan.conn (shard, a, b))

let start_dist plan ~shard ~node ~tag =
  Option.join (Hashtbl.find_opt plan.start (shard, node, tag))

(* --- the portal closure ------------------------------------------------ *)

let over_max max_dist d = match max_dist with Some m -> d > m | None -> false

(* Portals nearest first (see DESIGN.md for why the portal graph's
   distances are exact): entry portals reached from [seeds], or exit
   portals reaching them, each with its distance, cut past [max_dist].
   Every pop of the closure's enumerator counts as a closure lookup. *)
let nearest t toward ~max_dist seeds =
  let at = match toward with Portal_closure.Entries -> t.entry_at | Exits -> t.exit_at in
  let next =
    Portal_closure.nearest t.closure toward
      ~on_pop:(fun () -> Atomic.incr t.closure_lookups)
      seeds
  in
  fun () ->
    match next () with
    | Some (i, d) when not (over_max max_dist d) -> Option.map (fun p -> (p, d)) at.(i)
    | Some _ | None -> None

(* The forward seeds of global node [g]: itself when the portal graph
   carries it as a source, else its shard's exit portals at their
   within-shard distances, probed in [plan] — read the seeds once the
   plan has run. *)
let forward_seeds t plan ~g ~shard ~local =
  match Hashtbl.find_opt t.source_index g with
  | Some i -> fun () -> [ (i, 0) ]
  | None ->
      let exits = t.exits_by_shard.(shard) in
      Array.iter (fun (x : portal) -> plan_conn plan t ~shard ~a:local ~b:x.local) exits;
      fun () ->
        Array.fold_right
          (fun (x : portal) acc ->
            match conn_dist plan ~shard ~a:local ~b:x.local with
            | Some d -> (x.ci, d) :: acc
            | None -> acc)
          exits []

(* --- stream merge ------------------------------------------------------ *)

let globalize t ~shard ~offset (it : P.item) =
  { P.node = Shard_plan.global_of t.plan ~shard ~local:it.node; dist = it.dist + offset;
    meta = shard }

let flags ctx =
  { Server.timed_out = Atomic.get ctx.timed_out; partial = Atomic.get ctx.partial }

let degraded ctx = Atomic.get ctx.timed_out || Atomic.get ctx.partial

(* k-way merge of per-shard streams (each ascending by distance) with
   the same priority queue the PEE uses, preserving the approximately-
   ascending contract end to end: a pull stream, so the front's deadline
   and [k] cut it like any other. Nodes reachable through several
   shards or portals are deduplicated on first — i.e. nearest —
   occurrence. Ties break on global node id — the key packs
   (dist, node) into one integer — so the merged bytes are a function
   of the stream multiset alone, not of the order the streams arrived
   in.

   Portals open lazily, the PEE's entry-point expansion one level up:
   [portals] yields them nearest first, and before an item at distance
   [d] is emitted every portal at offset [<= d] is open — [open_portal]
   pushes what it has at hand and queues the rest into one wave per
   level, one BATCH per shard. Every item of an unopened portal lies
   past the front, so the merged bytes are those of a merge over every
   portal's stream. Shard waves run inside [next], so the front reads
   the degradation flags after its last pull. *)
let merge_streams t ctx ~exclude ~portals ~open_portal streams =
  let total = Shard_plan.total_nodes t.plan in
  let pq = PQ.create () in
  let push = function
    | [] -> ()
    | (it : P.item) :: rest -> PQ.insert pq ((it.dist * total) + it.node) (it, rest)
  in
  List.iter push streams;
  let pending = ref (portals ()) in
  let front () = if PQ.is_empty pq then max_int else PQ.min_prio pq / total in
  let rec settle () =
    match !pending with
    | Some (_, d) when d <= front () ->
        let plan = new_plan t in
        let rec open_level () =
          match !pending with
          | Some (p, d') when d' = d ->
              open_portal plan ~push p d;
              pending := portals ();
              open_level ()
          | Some _ | None -> ()
        in
        open_level ();
        run_plan t ctx plan;
        settle ()
    | Some _ | None -> ()
  in
  let seen = Hashtbl.create 64 in
  let rec next () =
    settle ();
    if PQ.is_empty pq then None
    else begin
      let (it : P.item), rest = PQ.pop pq in
      push rest;
      if it.node = exclude || Hashtbl.mem seen it.node then next ()
      else begin
        Hashtbl.replace seen it.node ();
        Some it
      end
    end
  in
  { Server.next; flags = (fun () -> flags ctx) }

(* Open an entry portal reached at distance [d]: the portal itself when
   its tag matches, then its stream — replayed from the stream cache
   when a previous request fetched it (the probe is a pure read of the
   shard's index, so the replay is exactly the bytes the probe would
   return), otherwise fetched in the level's wave. *)
let open_entry t ~tag ~k ~max_dist plan ~push (e : portal) d =
  if match tag with None -> true | Some w -> w = e.tag then
    push [ { P.node = e.g; dist = d; meta = e.shard } ];
  let remaining = Option.map (fun m -> m - d) max_dist in
  let key = (e.shard, e.local, tag, k, remaining) in
  let admit items = push (List.map (globalize t ~shard:e.shard ~offset:d) items) in
  match cache_find t t.stream_cache key with
  | Some items -> admit items
  | None ->
      plan_add plan e.shard
        (P.Node_descendants { node = e.local; tag; k; max_dist = remaining })
        (function
          | Some (items, _) ->
              cache_store t t.stream_cache key items;
              admit items
          | None -> ())

(* --- the verbs --------------------------------------------------------- *)

(* Descendants of one global node, across shards: the start's own
   stream, fetched with its exit legs in one wave, merged with one
   offset stream per entry portal the merge reaches. *)
let descendants_of_node t ctx ~start ~tag ~k ~max_dist =
  let shard0, local0 = Shard_plan.locate t.plan start in
  let streams = ref [] in
  let plan = new_plan t in
  plan_add plan shard0
    (P.Node_descendants { node = local0; tag; k; max_dist })
    (function
      | Some (items, _) ->
          streams := List.map (globalize t ~shard:shard0 ~offset:0) items :: !streams
      | None -> ());
  let seeds = forward_seeds t plan ~g:start ~shard:shard0 ~local:local0 in
  run_plan t ctx plan;
  merge_streams t ctx ~exclude:start !streams
    ~portals:(nearest t Entries ~max_dist (seeds ()))
    ~open_portal:(open_entry t ~tag ~k ~max_dist)

(* Ancestors: rdist(x), the distance from exit portal [x] down to
   [node], decomposes as the closure leg from [x] to some entry portal
   of [node]'s shard plus that entry's within-shard distance down to
   [node] — [node]'s leg set, probed on its own shard only when it is
   not cached. The exits then come nearest first, and each opens its
   ancestors-or-self stream, which reports [x] itself at distance 0.
   Anchors cannot help here: the portal graph has no edges into a doc
   root. *)
let ancestors_of_node t ctx ~node ~tag ~k ~max_dist =
  let shard0, local0 = Shard_plan.locate t.plan node in
  let streams = ref [] in
  let plan = new_plan t in
  plan_add plan shard0
    (P.Ancestors { node = local0; tag; k; max_dist })
    (function
      | Some (items, _) ->
          streams := List.map (globalize t ~shard:shard0 ~offset:0) items :: !streams
      | None -> ());
  let legs = plan_legs plan t ~g:node ~shard:shard0 ~local:local0 in
  run_plan t ctx plan;
  merge_streams t ctx ~exclude:(-1) !streams
    ~portals:(nearest t Exits ~max_dist (Array.to_list (legs ())))
    ~open_portal:(fun plan ~push (x : portal) d ->
      plan_add plan x.shard
        (P.Ancestors { node = x.local; tag; k; max_dist = Option.map (fun m -> m - d) max_dist })
        (function
          | Some (items, _) -> push (List.map (globalize t ~shard:x.shard ~offset:d) items)
          | None -> ()))

let evaluate_phase1 t ctx ~start_tag ~target_tag ~k ~max_dist =
  (* Phase 1: every shard answers over its own sub-collection, in
     parallel. Per-shard top-k by shard distance covers the global
     top-k: any node ranked above a global winner within its shard is
     at least as close globally too. *)
  let n = Array.length t.shards in
  let phase1 = Array.make n None in
  let threads =
    List.init n (fun s ->
        Thread.create
          (fun () ->
            phase1.(s) <-
              shard_call t ctx s (P.Evaluate { start_tag; target_tag; k; max_dist }))
          ())
  in
  List.iter Thread.join threads;
  List.concat
    (List.mapi
       (fun s result ->
         match result with
         | Some (items, _) -> [ List.map (globalize t ~shard:s ~offset:0) items ]
         | None -> [])
       (Array.to_list phase1))

(* EVALUATE: phase 1 per shard, then phase 2 for cross-shard reach.
   Phase 2 seeds every entry portal from its links' sources (nearest
   start-tag node above each, probed in one wave and cached across
   requests) and reaches the other entry portals nearest first from the
   seeded ones. *)
let evaluate t ctx ~start_tag ~target_tag ~k ~max_dist =
  let streams = evaluate_phase1 t ctx ~start_tag ~target_tag ~k ~max_dist in
  let seed_plan = new_plan t in
  Array.iter
    (fun l -> plan_start seed_plan t ~shard:l.src_shard ~node:l.src_local ~tag:start_tag)
    t.links;
  run_plan t ctx seed_plan;
  let seed_d = Hashtbl.create 32 in
  Array.iter
    (fun l ->
      match start_dist seed_plan ~shard:l.src_shard ~node:l.src_local ~tag:start_tag with
      | Some d0 -> (
          let d = d0 + 1 in
          match Hashtbl.find_opt seed_d l.dst_ci with
          | Some d' when d' <= d -> ()
          | _ -> Hashtbl.replace seed_d l.dst_ci d)
      | None -> ())
    t.links;
  let tag = Some target_tag in
  merge_streams t ctx ~exclude:(-1) streams
    ~portals:(nearest t Entries ~max_dist (Hashtbl.fold (fun i d acc -> (i, d) :: acc) seed_d []))
    ~open_portal:(open_entry t ~tag ~k ~max_dist)

(* Up to this many seed-by-leg pairs, CONNECTED joins each pair's
   labels (about a microsecond each) instead of walking the entry
   portals nearest first, which pops every portal nearer than the
   answer — hundreds when [b] is out of reach. *)
let join_limit = 32

(* CONNECTED: one conn batch (the same-shard direct probe, [a]'s exit
   legs unless anchored, and [b]'s leg set unless cached — a warm
   request sends nothing), then the best path through a final leg: by
   one label join per seed and leg when there are few, else by entry
   portals nearest first until the next one is no nearer than the best
   path found or every final leg's portal has been reached. Past
   [max_dist] every path answers NODIST, so the walk stops there too —
   unless the request degraded, where only a path found (however long)
   keeps it from answering PARTIAL. Both find the shortest path through
   the legs; each join and each pop counts as a closure lookup. *)
let connected t ctx ~a ~b ~max_dist =
  let shard_a, local_a = Shard_plan.locate t.plan a in
  let shard_b, local_b = Shard_plan.locate t.plan b in
  let plan = new_plan t in
  (* An entry portal [a] reaches [b] through its own leg, which the
     join below reads at closure distance 0: only another [a] on [b]'s
     shard needs the direct probe. *)
  let a_is_entry =
    match Hashtbl.find_opt t.source_index a with
    | Some i -> Option.is_some t.entry_at.(i)
    | None -> false
  in
  if shard_a = shard_b && not a_is_entry then
    plan_conn plan t ~shard:shard_a ~a:local_a ~b:local_b;
  let seeds = forward_seeds t plan ~g:a ~shard:shard_a ~local:local_a in
  let legs = plan_legs plan t ~g:b ~shard:shard_b ~local:local_b in
  run_plan t ctx plan;
  let legs = legs () in
  let best =
    ref (if shard_a = shard_b then conn_dist plan ~shard:shard_a ~a:local_a ~b:local_b else None)
  in
  let beats d = match !best with Some b -> d < b | None -> true in
  let seeds = seeds () in
  let joins = List.length seeds * Array.length legs in
  if joins <= join_limit then begin
    ignore (Atomic.fetch_and_add t.closure_lookups joins);
    List.iter
      (fun (s, o) ->
        Array.iter
          (fun (e, de) ->
            match Portal_closure.distance_at t.closure s e with
            | Some d -> if beats (o + d + de) then best := Some (o + d + de)
            | None -> ())
          legs)
      seeds
  end
  else begin
    let next = nearest t Entries ~max_dist:(if degraded ctx then None else max_dist) seeds in
    let rec walk left =
      if left > 0 then
        match next () with
        | Some ((e : portal), d) when beats d -> (
            match leg_of legs e.ci with
            | Some de ->
                if beats (d + de) then best := Some (d + de);
                walk (left - 1)
            | None -> walk left)
        | Some _ | None -> ()
    in
    walk (Array.length legs)
  end;
  match !best with
  | Some d when not (over_max max_dist d) -> Ok (Some d)
  | Some _ -> Ok None
  | None ->
      (* No path found. With a failed shard (or an expired budget) the
         negative is unreliable, so degrade to PARTIAL instead of
         asserting NODIST. *)
      if degraded ctx then Error (flags ctx) else Ok None

(* A document name is answered from the plan: its root, on its shard —
   the bytes the shard's own answer globalizes to. An anchor is looked
   up in the document, so its shard alone is asked, as a one-sub BATCH:
   a full shard queue holds it back until the deadline instead of
   answering BUSY. An empty answer is an unknown anchor only when
   nothing degraded it. *)
let resolve t ctx ~doc ~anchor =
  match (Shard_plan.doc_root t.plan doc, anchor) with
  | None, _ -> Ok None
  | Some (shard, root), None -> Ok (Some { P.node = root; dist = 0; meta = shard })
  | Some (shard, _), Some _ -> (
      match (exec_shard t ctx shard [| P.Resolve { doc; anchor } |]).(0) with
      | Some (it :: _, _) -> Ok (Some (globalize t ~shard ~offset:0 it))
      | Some ([], _) | None -> if degraded ctx then Error (flags ctx) else Ok None)

let stats_lines t =
  ("backend: coordinator (scatter-gather over shard servers)"
  :: Shard_plan.describe t.plan)
  @ Array.to_list
      (Array.map
         (fun s ->
           Printf.sprintf "shard %d at %s: %d failed attempts" (Shard_client.id s)
             (Shard_client.address s) (Shard_client.errors_total s))
         t.shards)
  @ [
      (let conn, start, stream, legs =
         with_lock t.cache_m (fun () ->
             ( Hashtbl.length t.conn_cache,
               Hashtbl.length t.start_cache,
               Hashtbl.length t.stream_cache,
               Hashtbl.length t.leg_cache ))
       in
       Printf.sprintf
         "probe cache: %d connected, %d nearest-start, %d portal-stream entries, %d leg sets"
         conn start stream legs);
      Printf.sprintf "probe rpcs: %d round trips carrying %d sub-requests"
        (probe_rpcs_total t) (probe_subs_total t);
      Printf.sprintf "%s; %d lookups (enumerator pops and label joins)"
        (Portal_closure.describe t.closure)
        (Atomic.get t.closure_lookups);
    ]

let metric_lines t () =
  let family = Metrics.family in
  let per_shard name help value =
    family name ~help `Counter
    @ Array.to_list
        (Array.map
           (fun s ->
             Printf.sprintf "%s{shard=\"%d\",addr=\"%s\"} %d" name (Shard_client.id s)
               (Shard_client.address s) (value s))
           t.shards)
  in
  per_shard "flix_shard_errors_total" "Failed shard attempts, by shard."
    Shard_client.errors_total
  @ family "flix_shard_fanout_latency_ms" ~help:"Latency of coordinator-to-shard calls."
      `Histogram
  @ Metrics.Histogram.render t.fanout ~name:"flix_shard_fanout_latency_ms" ~labels:""
  @ per_shard "flix_shard_probe_rpcs_total" "Wire round trips to each shard."
      Shard_client.rpcs_total
  @ per_shard "flix_shard_probe_subs_total" "Sub-requests carried by those round trips."
      Shard_client.subs_total
  @ family "flix_shard_probe_batch_size" ~help:"Sub-requests per batched probe RPC."
      `Histogram
  @ Metrics.Histogram.render t.batch_sizes ~name:"flix_shard_probe_batch_size" ~labels:""
  @ family "flix_coord_closure_lookups_total" ~help:"Portal-closure lookups: enumerator pops and label joins."
      `Counter
  @ [ Printf.sprintf "flix_coord_closure_lookups_total %d" (Atomic.get t.closure_lookups) ]
  @ family "flix_closure_build_seconds"
      ~help:"Build wall time of the loaded portal closure." `Gauge
  @ [ Printf.sprintf "flix_closure_build_seconds %.6f" (Portal_closure.build_seconds t.closure) ]
  @ family "flix_closure_label_entries" ~help:"Label entries in the loaded portal closure."
      `Gauge
  @ [ Printf.sprintf "flix_closure_label_entries %d" (Portal_closure.label_entries t.closure) ]

(* --- the backend ------------------------------------------------------- *)

(* Every primitive gets its own request context: its deadline and the
   degradation flags its shard calls raise. *)
let backend t =
  {
    Server.n_nodes = Shard_plan.total_nodes t.plan;
    resolve = (fun ~deadline_ns ~doc ~anchor -> resolve t (make_ctx deadline_ns) ~doc ~anchor);
    connected =
      (fun ~deadline_ns ~max_dist a b -> connected t (make_ctx deadline_ns) ~a ~b ~max_dist);
    descendants =
      (fun ~deadline_ns ~tag ~k ~max_dist start ->
        descendants_of_node t (make_ctx deadline_ns) ~start ~tag ~k ~max_dist);
    ancestors =
      (fun ~deadline_ns ~tag ~k ~max_dist node ->
        ancestors_of_node t (make_ctx deadline_ns) ~node ~tag ~k ~max_dist);
    evaluate =
      (fun ~deadline_ns ~start_tag ~target_tag ~k ~max_dist ->
        evaluate t (make_ctx deadline_ns) ~start_tag ~target_tag ~k ~max_dist);
    stats = (fun () -> stats_lines t);
    metric_lines = metric_lines t;
    close = (fun () -> close t);
    flix = None;
  }

(* --- hot reload -------------------------------------------------------- *)

(* Shard-by-shard reload behind the coordinator's own snapshot swap.

   Two phases, both all-or-nothing from the coordinator's point of view:
   first every shard is probed ([EPOCH]) so a dead shard is discovered
   before any shard is asked to mutate; then [RELOAD] fans out shard by
   shard. Any failure returns [Error] and the caller keeps serving the
   {e old} coordinator — plan, closure, caches, and connections are all
   fields of one immutable [t], so there is no mixed state to roll back:
   either the new [t] is published whole or the old one stays. Shards
   that did reload before a later failure re-read the same deployment
   directory, so their swap is idempotent with respect to the data the
   old plan describes.

   A closure that does not match the new plan is refused before any
   shard is touched: the closure is never rebuilt here, since that
   would need within-shard distances the shards would have to probe for.

   The new [t] reconnects from scratch (the old one still owns its
   connection pools until it is retired) and starts with empty probe
   caches. Merged answers are cached by the front server, whose RELOAD
   swap clears them. *)
let probe_deadline_ms = 2_000
let reload_deadline_ms = 120_000

let reload t ~plan ~closure =
  let n = Shard_plan.n_shards plan in
  if n <> Array.length t.shards then
    Error
      (Printf.sprintf "new plan has %d shards, serving %d — re-deploy instead" n
         (Array.length t.shards))
  else if not (Portal_closure.matches closure plan) then
    Error "the manifest's portal closure does not match its plan; rebuild with --build-shards"
  else begin
    let fail_at i msg =
      Error
        (Printf.sprintf "shard %d at %s %s" i (Shard_client.address t.shards.(i)) msg)
    in
    let sweep verb ~deadline_ms req =
      let rec go i =
        if i >= n then Ok ()
        else
          match Shard_client.call ~deadline_ms t.shards.(i) req with
          | Ok (_, P.Epoch _) -> go (i + 1)
          | Ok (_, P.Err msg) -> fail_at i (Printf.sprintf "refused %s: %s" verb msg)
          | Ok _ -> fail_at i (Printf.sprintf "answered %s with the wrong response" verb)
          | Error msg -> fail_at i (Printf.sprintf "unreachable during %s: %s" verb msg)
      in
      go 0
    in
    match sweep "probe" ~deadline_ms:probe_deadline_ms P.Epoch_query with
    | Error _ as e -> e
    | Ok () -> (
        match sweep "reload" ~deadline_ms:reload_deadline_ms P.Reload with
        | Error _ as e -> e
        | Ok () -> Ok (create ~closure ~plan ~shards:t.addrs ()))
  end
