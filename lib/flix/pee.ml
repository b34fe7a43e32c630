module PQ = Fx_graph.Priority_queue
module Path_index = Fx_index.Path_index

type t = {
  built : Index_builder.t;
  mutable insertions : int;
  mutable entry_drops : int;
}

let create built = { built; insertions = 0; entry_drops = 0 }

type item = { node : int; dist : int; meta : int }

(* One direction of evaluation: descendants use the forward label/axis
   operations and outgoing links, ancestors the mirrored ones. *)
type direction = {
  matches_in_meta : Path_index.instance -> int -> int option -> (int * int) list;
  links : Index_builder.built -> Index_builder.links;
      (* the staged L(a): every relevant link node below/above a local
         node, with its distance from/to it *)
  link_ends : Meta_document.t -> int list array;
      (* local link node -> global link endpoints on the other side *)
  covers : Path_index.instance -> int -> int -> bool;
      (* [covers idx entry v]: did processing [entry] already emit [v]?
         Forward: entry is an ancestor of v; backward: a descendant. *)
  local_dist : Path_index.instance -> int -> int -> int option;
      (* distance from an entry to a node inside one meta document, in
         the direction of evaluation *)
}

let forward : direction =
  {
    matches_in_meta = (fun idx l tag -> idx.Path_index.descendants_by_tag l tag);
    links = (fun b -> b.Index_builder.out_links);
    link_ends = (fun m -> m.Meta_document.out_links);
    covers = (fun idx entry v -> idx.Path_index.reachable entry v);
    local_dist = (fun idx entry v -> idx.Path_index.distance entry v);
  }

let backward : direction =
  {
    matches_in_meta = (fun idx l tag -> idx.Path_index.ancestors_by_tag l tag);
    links = (fun b -> b.Index_builder.in_links);
    link_ends = (fun m -> m.Meta_document.in_links);
    covers = (fun idx entry v -> idx.Path_index.reachable v entry);
    local_dist = (fun idx entry v -> idx.Path_index.distance v entry);
  }

(* Follow the links that are not reflected in [b]'s index: the far end
   of every link at a link node of [L(l)] goes into [queue] at priority
   [d + dist + 1], in (distance, node) order and each node's link-list
   order. The distances ascend, so the first link node past [max_dist]
   ends the walk: none after it would be pushed. *)
let push_links pee dir queue b l d ~max_dist =
  let ends = dir.link_ends b.Index_builder.meta in
  let rec push prio = function
    | [] -> ()
    | other_end :: rest ->
        pee.insertions <- pee.insertions + 1;
        PQ.insert queue prio other_end;
        push prio rest
  in
  Index_builder.iter_links (dir.links b) l (fun ~link ~dist ->
      let prio = d + dist + 1 in
      prio <= max_dist
      &&
      (push prio ends.(link);
       true))

(* A negative tag is the id of no element (an unknown name resolves to
   -1): such a query has no answers, and the connection test uses it to
   skip block evaluation. *)
let no_element = function Some w -> w < 0 | None -> false
let empty_stream () = Result_stream.of_fn (fun () -> None)

(* Shared engine state for one query. [entries] records the entry points
   per meta document for the paper's duplicate-elimination scheme.
   [seeds.(next_seed) .. seeds.(seeds_end - 1)] are the start elements
   not yet expanded: the paper puts them into the queue at priority 0,
   but every link push is >= 1, so they all come out first and their
   order among themselves is free: a cursor in the given order over a
   caller's array (the collection's per-tag row for [A//B]), no heap
   insert and no list cell per start. *)
type engine = {
  pee : t;
  dir : direction;
  tag : int option;
  max_dist : int;
  seeds : int array;
  mutable next_seed : int;
  seeds_end : int;
  queue : int PQ.t;
  entries : (int, int list) Hashtbl.t;
  pending : item Queue.t;
}

let make_engine pee dir ~tag ~max_dist ~seeds ~lo ~hi =
  {
    pee;
    dir;
    tag;
    max_dist;
    seeds;
    next_seed = lo;
    seeds_end = hi;
    queue = PQ.create ();
    entries = Hashtbl.create 16;
    pending = Queue.create ();
  }

(* Entry-point duplicate elimination (paper, Section 5.1): [e] is dropped
   when a previous entry point of the same meta document is an ancestor
   of it — all of [e]'s matches were already returned. *)
let covered_by_entries eng (idx : Path_index.instance) meta_id l =
  let prev = Option.value ~default:[] (Hashtbl.find_opt eng.entries meta_id) in
  (prev, List.exists (fun e' -> eng.dir.covers idx e' l) prev)

(* Expand one element popped at priority [d]. Returns false when [d]
   is past [max_dist], which ends the search. [on_meta] is called — with
   the priority, the built meta document and the local id — before
   results are enqueued; it lets the connection test short-circuit. *)
let expand eng ~on_meta d node =
  if d > eng.max_dist then begin
    eng.next_seed <- eng.seeds_end;
    PQ.clear eng.queue;
    false
  end
  else begin
    let reg = eng.pee.built.Index_builder.registry in
    let meta_id = reg.Meta_document.meta_of_node.(node) in
    let l = reg.Meta_document.local_of_node.(node) in
    let b = eng.pee.built.Index_builder.indexes.(meta_id) in
    let idx = b.Index_builder.index in
    let prev, covered = covered_by_entries eng idx meta_id l in
    if covered then eng.pee.entry_drops <- eng.pee.entry_drops + 1
    else begin
      on_meta d b l;
      let m = b.Index_builder.meta in
      (* Block evaluation inside the meta document. Results that are
         descendants of another entry point were already returned. *)
      if not (no_element eng.tag) then
        List.iter
          (fun (v, dv) ->
            let total = d + dv in
            if total <= eng.max_dist
               && not (List.exists (fun e' -> eng.dir.covers idx e' v) prev)
            then
              Queue.add
                { node = Meta_document.global_of_local m v; dist = total; meta = meta_id }
                eng.pending)
          (eng.dir.matches_in_meta idx l eng.tag);
      Hashtbl.replace eng.entries meta_id (l :: prev);
      push_links eng.pee eng.dir eng.queue b l d ~max_dist:eng.max_dist
    end;
    true
  end

(* Process one element: the seeds at priority 0, then the heap. Returns
   false when the search is over. *)
let step eng ~on_meta =
  if eng.next_seed < eng.seeds_end then begin
    let s = eng.seeds.(eng.next_seed) in
    eng.next_seed <- eng.next_seed + 1;
    expand eng ~on_meta 0 s
  end
  else
    (not (PQ.is_empty eng.queue))
    &&
    let d = PQ.min_prio eng.queue in
    expand eng ~on_meta d (PQ.pop eng.queue)

let stream_of_engine eng ~keep =
  let rec pull () =
    match Queue.take_opt eng.pending with
    | Some item -> if keep item then Some item else pull ()
    | None -> if step eng ~on_meta:(fun _ _ _ -> ()) then pull () else None
  in
  Result_stream.of_fn pull

let descendants ?tag ?(max_dist = max_int) ?(include_self = false) pee ~start =
  if no_element tag then empty_stream ()
  else
    let eng = make_engine pee forward ~tag ~max_dist ~seeds:[| start |] ~lo:0 ~hi:1 in
    stream_of_engine eng ~keep:(fun it -> include_self || not (it.node = start && it.dist = 0))

let ancestors ?tag ?(max_dist = max_int) ?(include_self = false) pee ~start =
  if no_element tag then empty_stream ()
  else
    let eng = make_engine pee backward ~tag ~max_dist ~seeds:[| start |] ~lo:0 ~hi:1 in
    stream_of_engine eng ~keep:(fun it -> include_self || not (it.node = start && it.dist = 0))

let descendants_multi_slice ?tag ?(max_dist = max_int) pee ~starts ~lo ~hi =
  if no_element tag then empty_stream ()
  else
    let eng = make_engine pee forward ~tag ~max_dist ~seeds:starts ~lo ~hi in
    stream_of_engine eng ~keep:(fun it -> it.dist > 0)

let descendants_multi ?tag ?max_dist pee ~starts =
  let starts = Array.of_list starts in
  descendants_multi_slice ?tag ?max_dist pee ~starts ~lo:0 ~hi:(Array.length starts)

(* ------------------------------------------------------------------ *)
(* Exactly-ordered evaluation — the paper's future-work item
   "returning results exactly sorted instead of approximately"
   (Section 7). Three changes against the approximate engine turn the
   link expansion into a proper Dijkstra over (meta-internal shortest
   path, link) alternations:

   1. distance-aware entry coverage: a new entry [l] at priority [d] is
      dropped only when a previous entry [e'] at priority [d'] satisfies
      [d' + dist(e', l) <= d] — such an entry can neither improve any
      result nor any link continuation;
   2. results are held in a heap and emitted only once their distance
      is <= the smallest priority still in the element queue (every
      future candidate costs at least that much);
   3. duplicate elimination moves from entry-ancestor suppression to an
      emitted-set: the first emission of a node is provably its minimal
      candidate, later candidates can only be worse.

   The price is more queue traffic than the approximate engine — the
   ablation bench quantifies it. *)
type exact_engine = {
  xpee : t;
  xdir : direction;
  xtag : int option;
  xmax_dist : int;
  xqueue : int PQ.t;
  xresults : item PQ.t;
  xentries : (int, (int * int) list) Hashtbl.t; (* meta -> (local, prio) *)
  xemitted : (int, unit) Hashtbl.t;
}

let make_exact_engine pee dir ~tag ~max_dist starts =
  let e =
    {
      xpee = pee;
      xdir = dir;
      xtag = tag;
      xmax_dist = max_dist;
      xqueue = PQ.create ();
      xresults = PQ.create ();
      xentries = Hashtbl.create 16;
      xemitted = Hashtbl.create 64;
    }
  in
  List.iter
    (fun s ->
      pee.insertions <- pee.insertions + 1;
      PQ.insert e.xqueue 0 s)
    starts;
  e

let exact_step eng =
  (not (PQ.is_empty eng.xqueue))
  &&
  let d = PQ.min_prio eng.xqueue in
  let node = PQ.pop eng.xqueue in
  if d > eng.xmax_dist then begin
    PQ.clear eng.xqueue;
    false
  end
  else begin
    let reg = eng.xpee.built.Index_builder.registry in
    let meta_id = reg.Meta_document.meta_of_node.(node) in
    let l = reg.Meta_document.local_of_node.(node) in
    let b = eng.xpee.built.Index_builder.indexes.(meta_id) in
    let idx = b.Index_builder.index in
    let prev = Option.value ~default:[] (Hashtbl.find_opt eng.xentries meta_id) in
    let covered =
      List.exists
        (fun (e', d') ->
          match eng.xdir.local_dist idx e' l with
          | Some dist -> d' + dist <= d
          | None -> false)
        prev
    in
    if covered then eng.xpee.entry_drops <- eng.xpee.entry_drops + 1
    else begin
      let m = b.Index_builder.meta in
      List.iter
        (fun (v, dv) ->
          let total = d + dv in
          let global = Meta_document.global_of_local m v in
          if total <= eng.xmax_dist && not (Hashtbl.mem eng.xemitted global) then
            PQ.insert eng.xresults total { node = global; dist = total; meta = meta_id })
        (eng.xdir.matches_in_meta idx l eng.xtag);
      Hashtbl.replace eng.xentries meta_id ((l, d) :: prev);
      push_links eng.xpee eng.xdir eng.xqueue b l d ~max_dist:eng.xmax_dist
    end;
    true
  end

let exact_stream eng ~keep =
  (* Emit a result only when no unexplored element could still yield a
     smaller distance. *)
  let frontier_bound () = if PQ.is_empty eng.xqueue then max_int else PQ.min_prio eng.xqueue in
  let rec pull () =
    if (not (PQ.is_empty eng.xresults)) && PQ.min_prio eng.xresults <= frontier_bound () then
      emit pull
    else if exact_step eng then pull ()
    else drain ()
  and drain () = if PQ.is_empty eng.xresults then None else emit drain
  and emit continue =
    let item = PQ.pop eng.xresults in
    if Hashtbl.mem eng.xemitted item.node then continue ()
    else begin
      Hashtbl.replace eng.xemitted item.node ();
      if keep item then Some item else continue ()
    end
  in
  Result_stream.of_fn pull

let descendants_exact ?tag ?(max_dist = max_int) ?(include_self = false) pee ~start =
  if no_element tag then empty_stream ()
  else
    let eng = make_exact_engine pee forward ~tag ~max_dist [ start ] in
    exact_stream eng ~keep:(fun it -> include_self || not (it.node = start && it.dist = 0))

let ancestors_exact ?tag ?(max_dist = max_int) ?(include_self = false) pee ~start =
  if no_element tag then empty_stream ()
  else
    let eng = make_exact_engine pee backward ~tag ~max_dist [ start ] in
    exact_stream eng ~keep:(fun it -> include_self || not (it.node = start && it.dist = 0))

(* The document-level filter: a pair it rules out has no path in the
   collection graph, so the search below would answer "unreachable"
   after exhausting everything within [max_dist]. *)
let ruled_out pee a b =
  not (Fx_graph.Reach_filter.may_reach pee.built.Index_builder.registry.Meta_document.reach a b)

(* Connection test (Section 5.2): same loop, but each visited meta
   document is probed directly for the target. *)
let connected ?(max_dist = max_int) pee a b =
  if a = b then Some 0
  else if ruled_out pee a b then None
  else begin
    let reg = pee.built.Index_builder.registry in
    let target_meta = reg.Meta_document.meta_of_node.(b) in
    let target_local = reg.Meta_document.local_of_node.(b) in
    (* Tag -1 matches no element, so [step] skips block evaluation: the
       connection test needs only the link expansion and the per-meta
       distance probe. *)
    let eng = make_engine pee forward ~tag:(Some (-1)) ~max_dist ~seeds:[| a |] ~lo:0 ~hi:1 in
    let found = ref None in
    let on_meta d built l =
      if built.Index_builder.meta.Meta_document.id = target_meta then
        match built.Index_builder.index.Path_index.distance l target_local with
        | Some d' when d + d' <= max_dist -> begin
            match !found with
            | Some best when best <= d + d' -> ()
            | Some _ | None -> found := Some (d + d')
          end
        | Some _ | None -> ()
    in
    (* The first hit is an upper bound that is exact inside the meta
       document; continuing until the queue priority passes it would give
       the true minimum, but the paper returns on first discovery. *)
    while !found = None && step eng ~on_meta do
      Queue.clear eng.pending
    done;
    !found
  end

let connected_bidir ?(max_dist = max_int) pee a b =
  if a = b then true
  else if ruled_out pee a b then false
  else begin
    let reg = pee.built.Index_builder.registry in
    (* Lockstep: forward search from [a] towards [b], backward search
       from [b] towards [a]; either engine finding its target decides. *)
    let fwd = make_engine pee forward ~tag:(Some (-1)) ~max_dist ~seeds:[| a |] ~lo:0 ~hi:1 in
    let bwd = make_engine pee backward ~tag:(Some (-1)) ~max_dist ~seeds:[| b |] ~lo:0 ~hi:1 in
    let target_meta_b = reg.Meta_document.meta_of_node.(b) in
    let target_local_b = reg.Meta_document.local_of_node.(b) in
    let target_meta_a = reg.Meta_document.meta_of_node.(a) in
    let target_local_a = reg.Meta_document.local_of_node.(a) in
    let found = ref false in
    let on_fwd d built l =
      if built.Index_builder.meta.Meta_document.id = target_meta_b then
        match built.Index_builder.index.Path_index.distance l target_local_b with
        | Some d' when d + d' <= max_dist -> found := true
        | Some _ | None -> ()
    in
    let on_bwd d built l =
      if built.Index_builder.meta.Meta_document.id = target_meta_a then
        match built.Index_builder.index.Path_index.distance target_local_a l with
        | Some d' when d + d' <= max_dist -> found := true
        | Some _ | None -> ()
    in
    let fwd_alive = ref true and bwd_alive = ref true in
    while (not !found) && (!fwd_alive || !bwd_alive) do
      if !fwd_alive then begin
        fwd_alive := step fwd ~on_meta:on_fwd;
        Queue.clear fwd.pending
      end;
      if (not !found) && !bwd_alive then begin
        bwd_alive := step bwd ~on_meta:on_bwd;
        Queue.clear bwd.pending
      end
    done;
    !found
  end

let queue_stats pee = (pee.insertions, pee.entry_drops)
