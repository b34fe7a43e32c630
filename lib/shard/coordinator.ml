module P = Fx_server.Protocol
module Server = Fx_server.Server
module Metrics = Fx_server.Metrics
module Run_merge = Fx_graph.Run_merge
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

(* A table shared by every request, under its own lock. Shard indexes
   are immutable, so an entry never goes stale; the table is reset
   whole when a store would take the weight it holds past
   [probe_cache_limit], [weigh] being what one value counts. *)
type ('k, 'v) bounded = {
  m : Mutex.t;
  tbl : ('k, 'v) Hashtbl.t;
  weigh : 'v -> int;
  mutable weight : int;
}

let probe_cache_limit = 65536

let bounded weigh = { m = Mutex.create (); tbl = Hashtbl.create 256; weigh; weight = 0 }
let bounded_find b key = with_lock b.m (fun () -> Hashtbl.find_opt b.tbl key)
let bounded_length b = with_lock b.m (fun () -> Hashtbl.length b.tbl)

let bounded_store b key v =
  with_lock b.m (fun () ->
      if b.weight + b.weigh v > probe_cache_limit then begin
        Hashtbl.reset b.tbl;
        b.weight <- 0
      end;
      Option.iter (fun old -> b.weight <- b.weight - b.weigh old) (Hashtbl.find_opt b.tbl key);
      Hashtbl.replace b.tbl key v;
      b.weight <- b.weight + b.weigh v)

(* A shard answer as the coordinator reads it, converted once when its
   reply is recorded: a within-shard distance, or a stream as a run of
   (dist, global node) keys packed by [Run_merge.pack] with [t.bits],
   in the shard's order. A run costs one word per item, where a list of
   [P.item] records costs about seven. *)
type answer = Dist of int option | Run of int array

(* A deduplicated portal, located once at create time, with its
   portal-closure index [ci]. [tag] is the node's tag name for entry
   portals (link targets emit themselves into matching streams) and
   [""] for exit portals, which never do. *)
type portal = { g : int; shard : int; local : int; tag : string; ci : int }

type t = {
  plan : Shard_plan.t;
  bits : int;  (* [Run_merge.bits] of the collection's node count *)
  shards : Shard_client.t array;
  addrs : (string * int) list;  (* the addresses [shards] was built from *)
  links : located_link array;
  (* The memo: clean shard answers, converted, keyed by the shard and
     the request it was sent (see [ask]). Each counts 1. *)
  memo : (int * P.request, answer) bounded;
  (* Leg sets: by global target node, the (closure index, distance) of
     every entry portal of its shard that reaches it, ascending by
     closure index. Stored whole or not at all (see [legs_into]); a set
     counts its legs plus 1, since one can hold a thousand. *)
  leg_sets : (int, (int * int) array) bounded;
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
    bits = Run_merge.bits (Shard_plan.total_nodes plan);
    shards = clients;
    addrs = shards;
    links;
    memo = bounded (fun _ -> 1);
    leg_sets = bounded (fun legs -> 1 + Array.length legs);
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
   sharded fault tolerance. A stream answer carries its items inline,
   whether it came from a single call or a batch slot. *)
let classify ctx = function
  | Error _ | Ok (P.Busy | P.Err _) ->
      (* A shard that answered but refused or failed the request loses
         its contribution all the same. *)
      Atomic.set ctx.partial true;
      None
  | Ok (P.Items { timed_out; partial; _ } as resp) ->
      if timed_out then Atomic.set ctx.timed_out true;
      if partial then Atomic.set ctx.partial true;
      Some resp
  | Ok resp -> Some resp

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
    classify ctx result
  end

(* Run one shard's share of a wave as pipelined BATCH round trips
   ([Shard_client.call_many] splits and retries it). *)
let exec_shard t ctx shard reqs =
  let left = remaining_ms ctx in
  if left <= 0 then begin
    Atomic.set ctx.timed_out true;
    Array.map (fun _ -> None) reqs
  end
  else begin
    let sw = Stopwatch.start () in
    let results = Shard_client.call_many ~deadline_ms:left t.shards.(shard) reqs in
    Metrics.Histogram.observe t.fanout (Stopwatch.elapsed_ms sw);
    Array.map (classify ctx) results
  end

(* --- waves: plan, run, read ------------------------------------------- *)

(* One wave of shard work — every request a query can send before it
   needs their answers — planned request by request, fired as one batch
   per shard, then read through the reader each plan returns. A request
   planned twice in one wave is sent once. A wave is built by the first
   request queued in it, so one whose every request is a memo hit is
   never built and never runs. *)
type wave = {
  (* per shard, newest first; [true] marks a request whose clean reply
     goes into the memo *)
  queued : (P.request * bool) list array;
  (* every queued request: [None] until its reply arrives, and after a
     run when the shard failed it (the degradation flags are set) *)
  replies : (int * P.request, answer option) Hashtbl.t;
}

let new_wave t =
  lazy { queued = Array.make (Array.length t.shards) []; replies = Hashtbl.create 16 }

let queue wave ~memo shard req =
  let wave = Lazy.force wave in
  if not (Hashtbl.mem wave.replies (shard, req)) then begin
    Hashtbl.replace wave.replies (shard, req) None;
    wave.queued.(shard) <- (req, memo) :: wave.queued.(shard)
  end;
  fun () -> Option.join (Hashtbl.find_opt wave.replies (shard, req))

(* Plan a request whose answer is not worth remembering. *)
let send wave shard req = queue wave ~memo:false shard req

(* Plan a request whose answer any later query may reuse: a memoized
   answer is read as it is, anything else is sent, and a clean reply is
   stored once the wave has run. *)
let ask t wave shard req =
  match bounded_find t.memo (shard, req) with
  | Some a -> fun () -> Some a
  | None -> queue wave ~memo:true shard req

(* The memo's one store rule, the front answer cache's: a distance, or
   a stream neither cut off nor degraded. A cut-off stream stored would
   be replayed as complete. *)
let clean = function
  | P.Dist _ -> true
  | P.Items { timed_out; partial; _ } -> not (timed_out || partial)
  | _ -> false

(* A reply as it is read: a stream's items are globalized here, once,
   and every replay reads the run. Any other response reads as a failed
   probe. *)
let answer_of t ~shard = function
  | P.Dist d -> Some (Dist d)
  | P.Items { items; _ } ->
      let run = Array.make (List.length items) 0 in
      List.iteri
        (fun i (it : P.item) ->
          run.(i) <-
            Run_merge.pack ~bits:t.bits it.dist (Shard_plan.global_of t.plan ~shard ~local:it.node))
        items;
      Some (Run run)
  | _ -> None

(* Fire a built wave: one batch per shard, shards in parallel, then
   record the replies on this thread, each converted once. A shard
   thread that dies before its answers are in fails every slot of its
   shard, as a lost shard does, so the request degrades to PARTIAL
   instead of reading those segments as unreachable. Readers hold the
   wave's own replies, so a memo reset — even one this wave's stores
   trigger — cannot lose an answer. *)
let fire t ctx wave =
  let groups = ref [] in
  Array.iteri
    (fun shard queued ->
      if queued <> [] then groups := (shard, Array.of_list (List.rev queued)) :: !groups)
    wave.queued;
  let exec (shard, queued) = exec_shard t ctx shard (Array.map fst queued) in
  let record (shard, queued) out =
    Array.iteri
      (fun i resp ->
        let req, memo = queued.(i) in
        let a = Option.bind resp (answer_of t ~shard) in
        Hashtbl.replace wave.replies (shard, req) a;
        match (resp, a) with
        | Some resp, Some a when memo && clean resp -> bounded_store t.memo (shard, req) a
        | _ -> ())
      out
  in
  match !groups with
  | [] -> ()
  | [ group ] ->
      (* One shard: no thread hop needed. *)
      record group (exec group)
  | groups ->
      let running =
        List.map
          (fun group ->
            let out = ref None in
            (Thread.create (fun () -> out := Some (exec group)) (), group, out))
          groups
      in
      List.iter (fun (th, _, _) -> Thread.join th) running;
      List.iter
        (fun (_, group, out) ->
          record group
            (match !out with
            | Some out -> out
            | None -> Array.map (fun _ -> classify ctx (Error "shard thread failed")) (snd group)))
        running

let run_plan t ctx wave = if Lazy.is_val wave then fire t ctx (Lazy.force wave)

(* The within-shard distance from [a] down to [b], planned with [plan]
   ([ask t] or [send]) and read once the wave has run: [Some d] for a
   [DIST d] reply, [None] when the probe failed. Probes carry no
   max_dist so one answer serves every request; readers prune. A node
   is at 0 from itself, with no probe. *)
let distance plan wave ~shard ~a ~b =
  if a = b then fun () -> Some (Some 0)
  else begin
    let read = plan wave shard (P.Connected { a; b; max_dist = None }) in
    fun () -> match read () with Some (Dist d) -> Some d | Some (Run _) | None -> None
  end

(* The final legs into global node [g] ([local] on [shard]) as a leg
   set: a stored one costs one lookup. Otherwise one probe per entry
   portal of the shard rides [wave], and the set read once it has run
   is stored only when every probe answered [DIST] — a failed or
   cut-off probe would make a missing leg look like an unreachable
   entry. The probes are sent, not asked: the set is what is kept.
   Entries are sorted by global id, and so by closure index, which
   keeps the set sorted for [leg_of]. *)
let legs_into t wave ~g ~shard ~local =
  match bounded_find t.leg_sets g with
  | Some legs -> fun () -> legs
  | None ->
      let entries = t.entries_by_shard.(shard) in
      let dists =
        Array.map (fun (e : portal) -> distance send wave ~shard ~a:e.local ~b:local) entries
      in
      fun () ->
        let dists = Array.map (fun read -> read ()) dists in
        let legs = ref [] in
        for i = Array.length entries - 1 downto 0 do
          match dists.(i) with
          | Some (Some d) -> legs := (entries.(i).ci, d) :: !legs
          | Some None | None -> ()
        done;
        let legs = Array.of_list !legs in
        if Array.for_all Option.is_some dists then bounded_store t.leg_sets g legs;
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

(* The nearest-start probe: distance from the closest [tag]-named node
   above [node] (ancestors-or-self) within its shard. *)
let start_probe ~node ~tag = P.Ancestors { node; tag = Some tag; k = 1; max_dist = None }

(* The nearest start's distance: the first key of the probe's run. *)
let start_dist t read =
  match read () with
  | Some (Run run) when Array.length run > 0 -> Some (Run_merge.dist ~bits:t.bits run.(0))
  | Some _ | None -> None

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
   within-shard distances, asked in [wave] — read the seeds once the
   wave has run. *)
let forward_seeds t wave ~g ~shard ~local =
  match Hashtbl.find_opt t.source_index g with
  | Some i -> fun () -> [ (i, 0) ]
  | None ->
      let legs =
        Array.map
          (fun (x : portal) -> (x.ci, distance (ask t) wave ~shard ~a:local ~b:x.local))
          t.exits_by_shard.(shard)
      in
      fun () ->
        Array.fold_right
          (fun (ci, read) acc ->
            match Option.join (read ()) with Some d -> (ci, d) :: acc | None -> acc)
          legs []

(* --- stream merge ------------------------------------------------------ *)

(* A run read at [offset] from [shard]: its next key plus [base], the
   packed offset, is the key of [(dist + offset, global node)]. *)
type cursor = { base : int; run : int array; mutable pos : int; shard : int }

let cursor t ~shard ~offset run =
  { base = Run_merge.pack ~bits:t.bits offset 0; run; pos = 0; shard }

let step c =
  if c.pos < Array.length c.run then begin
    c.pos <- c.pos + 1;
    c.base + c.run.(c.pos - 1)
  end
  else -1

(* A stream reply as a cursor; a failed one is an empty run. *)
let stream t ~shard ~offset = function
  | Some (Run run) -> cursor t ~shard ~offset run
  | Some (Dist _) | None -> cursor t ~shard ~offset [||]

let flags ctx =
  { Server.timed_out = Atomic.get ctx.timed_out; partial = Atomic.get ctx.partial }

let degraded ctx = Atomic.get ctx.timed_out || Atomic.get ctx.partial

(* Open portal [p], reached at distance [d]: an entry portal pushes its
   own item, a one-element run at offset [d], when its tag matches, then
   its [NDESCENDANTS] stream; an exit portal its ancestors-or-self
   [ANCESTORS] stream, which reports the portal itself at distance 0. A
   stream does not depend on who reached the portal, so it is asked:
   one fetch serves every start, and a replay reads the run of exactly
   the bytes the shard would send again, at this portal's offset. The
   stream is pushed by the returned reader once the wave has run. *)
let open_portal t toward ~tag ~k ~max_dist wave ~push (p : portal) d =
  let max_dist = Option.map (fun m -> m - d) max_dist in
  let req =
    match toward with
    | Portal_closure.Entries ->
        if match tag with None -> true | Some w -> w = p.tag then
          push (cursor t ~shard:p.shard ~offset:d [| p.g |]);
        P.Node_descendants { node = p.local; tag; k; max_dist }
    | Exits -> P.Ancestors { node = p.local; tag; k; max_dist }
  in
  let read = ask t wave p.shard req in
  fun () -> push (stream t ~shard:p.shard ~offset:d (read ()))

(* The distance merge (DESIGN.md) of [streams] and the streams of the
   portals nearest [seeds]: a pull stream, so the front's deadline and
   [k] cut it like any other, and a node reachable through several
   shards or portals is emitted once, nearest first, tagged with the
   shard it came from.

   Portals open lazily, the PEE's entry-point expansion one level up:
   before every pop each portal at offset [<= front] is open, the
   portals of one distance in one wave, one BATCH per shard. Shard
   waves run inside [next], so the front reads the degradation flags
   after its last pull. *)
let merge_streams t ctx ~exclude toward ~tag ~k ~max_dist ~seeds streams =
  let portals = nearest t toward ~max_dist seeds in
  let pending = ref (portals ()) in
  let rec settle m =
    match !pending with
    | Some (_, d) when d <= Run_merge.front m ->
        let wave = new_wave t in
        let rec open_level reads =
          match !pending with
          | Some (p, d') when d' = d ->
              let read = open_portal t toward ~tag ~k ~max_dist wave ~push:(Run_merge.add m) p d in
              pending := portals ();
              open_level (read :: reads)
          | Some _ | None -> List.rev reads
        in
        let reads = open_level [] in
        run_plan t ctx wave;
        List.iter (fun read -> read ()) reads;
        settle m
    | Some _ | None -> ()
  in
  let emit c node dist = { P.node; dist; meta = c.shard } in
  let m = Run_merge.create ~bits:t.bits ~exclude ~before_pop:settle ~emit step in
  List.iter (Run_merge.add m) streams;
  { Server.next = (fun () -> Run_merge.next m); flags = (fun () -> flags ctx) }

(* --- the verbs --------------------------------------------------------- *)

(* The start's own stream, sent in [wave] and read at offset 0 once it
   has run. It is not memoized: starts rarely repeat, and remembering
   them all would cost far more than it saves. *)
let own_stream t wave ~shard req =
  let read = send wave shard req in
  fun () -> stream t ~shard ~offset:0 (read ())

(* Descendants of one global node, across shards: the start's own
   stream, fetched with its exit legs in one wave, merged with one
   offset stream per entry portal the merge reaches. *)
let descendants_of_node t ctx ~start ~tag ~k ~max_dist =
  let shard0, local0 = Shard_plan.locate t.plan start in
  let wave = new_wave t in
  let own =
    own_stream t wave ~shard:shard0 (P.Node_descendants { node = local0; tag; k; max_dist })
  in
  let seeds = forward_seeds t wave ~g:start ~shard:shard0 ~local:local0 in
  run_plan t ctx wave;
  merge_streams t ctx ~exclude:start Entries ~tag ~k ~max_dist ~seeds:(seeds ()) [ own () ]

(* Ancestors: rdist(x), the distance from exit portal [x] down to
   [node], decomposes as the closure leg from [x] to some entry portal
   of [node]'s shard plus that entry's within-shard distance down to
   [node] — [node]'s leg set, probed on its own shard only when it is
   not stored. The exits then come nearest first, each opening its
   stream. Anchors cannot help here: the portal graph has no edges into
   a doc root. *)
let ancestors_of_node t ctx ~node ~tag ~k ~max_dist =
  let shard0, local0 = Shard_plan.locate t.plan node in
  let wave = new_wave t in
  let own = own_stream t wave ~shard:shard0 (P.Ancestors { node = local0; tag; k; max_dist }) in
  let legs = legs_into t wave ~g:node ~shard:shard0 ~local:local0 in
  run_plan t ctx wave;
  merge_streams t ctx ~exclude:(-1) Exits ~tag ~k ~max_dist
    ~seeds:(Array.to_list (legs ()))
    [ own () ]

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
  Array.to_list
    (Array.mapi
       (fun s result -> stream t ~shard:s ~offset:0 (Option.bind result (answer_of t ~shard:s)))
       phase1)

(* EVALUATE: phase 1 per shard, then phase 2 for cross-shard reach.
   Phase 2 seeds every entry portal from its links' sources (nearest
   start-tag node above each, asked in one wave) and reaches the other
   entry portals nearest first from the seeded ones. *)
let evaluate t ctx ~start_tag ~target_tag ~k ~max_dist =
  let streams = evaluate_phase1 t ctx ~start_tag ~target_tag ~k ~max_dist in
  let wave = new_wave t in
  let starts =
    Array.map (fun l -> ask t wave l.src_shard (start_probe ~node:l.src_local ~tag:start_tag)) t.links
  in
  run_plan t ctx wave;
  let seed_d = Hashtbl.create 32 in
  Array.iteri
    (fun i l ->
      match start_dist t starts.(i) with
      | Some d0 -> (
          let d = d0 + 1 in
          match Hashtbl.find_opt seed_d l.dst_ci with
          | Some d' when d' <= d -> ()
          | _ -> Hashtbl.replace seed_d l.dst_ci d)
      | None -> ())
    t.links;
  merge_streams t ctx ~exclude:(-1) Entries ~tag:(Some target_tag) ~k ~max_dist
    ~seeds:(Hashtbl.fold (fun i d acc -> (i, d) :: acc) seed_d [])
    streams

(* Up to this many seed-by-leg pairs, CONNECTED joins each pair's
   labels (about a microsecond each) instead of walking the entry
   portals nearest first, which pops every portal nearer than the
   answer — hundreds when [b] is out of reach. *)
let join_limit = 32

(* CONNECTED: one wave (the same-shard direct probe, [a]'s exit legs
   unless anchored, and [b]'s leg set unless stored — a warm request
   sends nothing), then the best path through a final leg: by one label
   join per seed and leg when there are few, else by entry portals
   nearest first until the next one is no nearer than the best path
   found or every final leg's portal has been reached. Past [max_dist]
   every path answers NODIST, so the walk stops there too — unless the
   request degraded, where only a path found (however long) keeps it
   from answering PARTIAL. Both find the shortest path through the
   legs; each join and each pop counts as a closure lookup. *)
let connected t ctx ~a ~b ~max_dist =
  let shard_a, local_a = Shard_plan.locate t.plan a in
  let shard_b, local_b = Shard_plan.locate t.plan b in
  let wave = new_wave t in
  (* An entry portal [a] reaches [b] through its own leg, which the
     join below reads at closure distance 0: only another [a] on [b]'s
     shard needs the direct probe. *)
  let a_is_entry =
    match Hashtbl.find_opt t.source_index a with
    | Some i -> Option.is_some t.entry_at.(i)
    | None -> false
  in
  let direct =
    if shard_a = shard_b && (a = b || not a_is_entry) then
      distance (ask t) wave ~shard:shard_a ~a:local_a ~b:local_b
    else fun () -> None
  in
  let seeds = forward_seeds t wave ~g:a ~shard:shard_a ~local:local_a in
  let legs = legs_into t wave ~g:b ~shard:shard_b ~local:local_b in
  run_plan t ctx wave;
  let legs = legs () in
  let best = ref (Option.join (direct ())) in
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
      | Some (P.Items { items = it :: _; _ }) ->
          Ok (Some { it with node = Shard_plan.global_of t.plan ~shard ~local:it.node; meta = shard })
      | Some _ | None -> if degraded ctx then Error (flags ctx) else Ok None)

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
      Printf.sprintf "probe cache: %d answers, %d leg sets" (bounded_length t.memo)
        (bounded_length t.leg_sets);
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
   connection pools until it is retired) and starts with an empty memo
   and no leg sets. Merged answers are cached by the front server, whose
   RELOAD swap clears them. *)
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
          | Ok (P.Epoch _) -> go (i + 1)
          | Ok (P.Err msg) -> fail_at i (Printf.sprintf "refused %s: %s" verb msg)
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
