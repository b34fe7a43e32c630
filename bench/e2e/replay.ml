(* The traced run's in-process replay. Right after an operation's wire
   round trip, the client thread that sent it runs the same operation
   again through the layers' public functions — the protocol parser and
   renderer, name resolution, and the evaluator the server would use —
   and records one span per layer. The server is never instrumented;
   these spans time the same code from outside it.

   mem-* replay on the memory evaluator (Pee over a FliX index built
   from the same files), disk-read on the disk deployment the server
   serves (opened a second time, read only), and coord-read on the
   shard that owns the start node: the coordinator's own merge and
   portal joins are visible only through its METRICS counters. *)

module P = Fx_server.Protocol
module Flix = Fx_flix.Flix
module Pee = Fx_flix.Pee
module RS = Fx_flix.Result_stream
module Disk_hopi = Fx_index.Disk_hopi
module Catalog = Fx_index.Catalog
module C = Fx_xml.Collection
module Shard_plan = Fx_shard.Shard_plan
module Stopwatch = Fx_util.Stopwatch

type disk = {
  hopi : Disk_hopi.t;
  catalog : Catalog.t;
  tag_sizes : (int * int) list;  (** (tag id, nodes_by_tag size) of the tags requests name *)
}

type backend =
  | Memory of Flix.t Atomic.t
  | Disk of disk
  | Shards of { plan : Shard_plan.t; shards : disk array }

(* Every client reads the same disk deployment, so what they share is
   computed here, before any of them starts. *)
let open_disk ~pool_pages prefix =
  let hopi = Disk_hopi.open_ ~pool_pages ~path:prefix () in
  let catalog = Catalog.load (prefix ^ ".catalog") in
  let tag_sizes =
    List.filter_map
      (fun name ->
        Option.map
          (fun id -> (id, List.length (Disk_hopi.nodes_by_tag hopi id)))
          (Catalog.tag_id catalog name))
      (Array.to_list Mix.leaf_tags)
  in
  { hopi; catalog; tag_sizes }

let close = function
  | Memory _ -> ()
  | Disk d -> Disk_hopi.close d.hopi
  | Shards { shards; _ } -> Array.iter (fun d -> Disk_hopi.close d.hopi) shards

(* Per-thread counters; summed over threads at the end. *)
type counters = {
  mutable ops : int;
  mutable queue_inserts : int;
  mutable entry_drops : int;
  mutable items : int;
  mutable candidates : int;  (** tag-directory candidates behind disk answers *)
  mutable candidate_items : int;
}

type thread = { backend : backend; mutable pee : (Flix.t * Pee.t) option; c : counters }

let zero () =
  { ops = 0; queue_inserts = 0; entry_drops = 0; items = 0; candidates = 0; candidate_items = 0 }

let thread backend = { backend; pee = None; c = zero () }

let sum_counters threads =
  let z = zero () in
  List.iter
    (fun t ->
      z.ops <- z.ops + t.c.ops;
      z.queue_inserts <- z.queue_inserts + t.c.queue_inserts;
      z.entry_drops <- z.entry_drops + t.c.entry_drops;
      z.items <- z.items + t.c.items;
      z.candidates <- z.candidates + t.c.candidates;
      z.candidate_items <- z.candidate_items + t.c.candidate_items)
    threads;
  z

(* Each domain of the server keeps a private evaluator; so does each
   replaying thread, rebuilt when an admin swap replaced the index. *)
let pee_for th flix =
  match th.pee with
  | Some (f, p) when f == flix -> p
  | _ ->
      let p = Pee.create (Flix.built flix) in
      th.pee <- Some (flix, p);
      p

let tag_size d tag = Option.value (List.assoc_opt tag d.tag_sizes) ~default:0

let take k l = List.filteri (fun i _ -> i < k) l

type answer = Items of (int * int) list | Dist of int option | Nothing

(* Resolution result: a thunk that evaluates, the evaluating layer, and
   the tag-directory size behind a disk answer. *)
type plan = { layer : string; run : unit -> answer; candidates : int option }

let memory_plan th flix (op : Mix.op) =
  let coll = Flix.collection flix in
  let pee = pee_for th flix in
  let tag name = Some (Option.value ~default:(-1) (C.tag_id coll name)) in
  let items s k = Items (List.map (fun (it : Pee.item) -> (it.node, it.dist)) (RS.take k s)) in
  let run =
    match op with
    | Desc { doc; tag = t; k; _ } -> (
        match Flix.node_of flix ~doc ~anchor:None with
        | None -> fun () -> Nothing
        | Some start ->
            let tag = tag t in
            fun () -> items (Pee.descendants ?tag pee ~start) k)
    | Anc { node; tag = t; k } ->
        let tag = tag t in
        fun () -> items (Pee.ancestors ?tag ~include_self:true pee ~start:node) k
    | Conn { a; b; max_dist } -> fun () -> Dist (Pee.connected ~max_dist pee a b)
    | Eval { start_tag; target_tag; k; max_dist } ->
        let starts = C.find_by_tag coll start_tag in
        let tag = tag target_tag in
        fun () -> items (Pee.descendants_multi ?tag ?max_dist pee ~starts) k
  in
  { layer = "pee"; run; candidates = None }

let disk_plan d ~start_of (op : Mix.op) =
  let tag t = Catalog.tag_id d.catalog t in
  let pairs l = Items l in
  match op with
  | Desc { tag = t; k; _ } -> (
      match (start_of op, tag t) with
      | Some start, Some tag ->
          {
            layer = "disk_hopi";
            run =
              (fun () ->
                Disk_hopi.descendants_by_tag d.hopi start (Some tag)
                |> List.filter (fun (v, dist) -> not (v = start && dist = 0))
                |> take k |> pairs);
            candidates = Some (tag_size d tag);
          }
      | _ -> { layer = "disk_hopi"; run = (fun () -> Nothing); candidates = None })
  | Anc { tag = t; k; _ } -> (
      match (start_of op, tag t) with
      | Some node, Some tag ->
          {
            layer = "disk_hopi";
            run = (fun () -> pairs (take k (Disk_hopi.ancestors_by_tag d.hopi node (Some tag))));
            candidates = Some (tag_size d tag);
          }
      | _ -> { layer = "disk_hopi"; run = (fun () -> Nothing); candidates = None })
  | Conn { a; b; max_dist } ->
      {
        layer = "disk_hopi";
        run =
          (fun () ->
            Dist
              (match Disk_hopi.distance d.hopi a b with
              | Some x when x > max_dist -> None
              | x -> x));
        candidates = None;
      }
  | Eval _ -> { layer = "disk_hopi"; run = (fun () -> Nothing); candidates = None }

(* coord-read: the owning shard's part, in that shard's local ids. A
   CONNECTED pair split across shards and EVALUATE (every shard plus the
   merge) have no single-shard part to replay. *)
let shard_plan plan shards (op : Mix.op) =
  let none = { layer = "disk_hopi"; run = (fun () -> Nothing); candidates = None } in
  let local g = Shard_plan.locate plan g in
  match op with
  | Desc { doc; _ } -> (
      match Shard_plan.shard_of_doc plan doc with
      | None -> none
      | Some s ->
          let d = shards.(s) in
          disk_plan d ~start_of:(fun _ -> Catalog.node_of d.catalog ~doc ~anchor:None) op)
  | Anc { node; _ } ->
      let s, l = local node in
      disk_plan shards.(s) ~start_of:(fun _ -> Some l) op
  | Conn { a; b; max_dist } ->
      let sa, la = local a and sb, lb = local b in
      if sa <> sb then none else disk_plan shards.(sa) ~start_of:(fun _ -> None) (Conn { a = la; b = lb; max_dist })
  | Eval _ -> none

let render = function
  | Items l ->
      ignore
        (P.response_lines
           (P.Items
              {
                items = List.map (fun (node, dist) -> { P.node; dist; meta = 0 }) l;
                timed_out = false;
                partial = false;
              }))
  | Dist d -> ignore (P.response_lines (P.Dist d))
  | Nothing -> ()

(* Replay [op]; the four layer spans, children of the operation's root
   span (index 0). *)
let op th (op : Mix.op) =
  let now = Stopwatch.now_ns in
  let verb = Mix.verb op in
  let line = P.request_line (Mix.request op) in
  let t0 = now () in
  ignore (P.parse_request line);
  let t1 = now () in
  let plan =
    match th.backend with
    | Memory flix -> memory_plan th (Atomic.get flix) op
    | Disk d ->
        disk_plan d
          ~start_of:(function
            | Desc { doc; _ } -> Catalog.node_of d.catalog ~doc ~anchor:None
            | Anc { node; _ } -> Some node
            | Conn _ | Eval _ -> None)
          op
    | Shards { plan; shards } -> shard_plan plan shards op
  in
  let t2 = now () in
  let before = match th.pee with Some (_, p) -> Pee.queue_stats p | None -> (0, 0) in
  let answer = plan.run () in
  let t3 = now () in
  (match th.pee with
  | Some (_, p) when plan.layer = "pee" ->
      let ins, drops = Pee.queue_stats p in
      th.c.queue_inserts <- th.c.queue_inserts + ins - fst before;
      th.c.entry_drops <- th.c.entry_drops + drops - snd before
  | _ -> ());
  render answer;
  let t4 = now () in
  th.c.ops <- th.c.ops + 1;
  let n_items = match answer with Items l -> List.length l | Dist _ | Nothing -> 0 in
  th.c.items <- th.c.items + n_items;
  (match plan.candidates with
  | Some c ->
      th.c.candidates <- th.c.candidates + c;
      th.c.candidate_items <- th.c.candidate_items + n_items
  | None -> ());
  let eval_spans =
    match answer with
    | Nothing -> []
    | Items _ | Dist _ ->
        [
          Spans.span ~parent:0 "eval" t2 t3
            ~keys:[ plan.layer ^ "." ^ verb ]
            ~args:[ ("layer", plan.layer); ("verb", verb) ];
        ]
  in
  [ Spans.span ~parent:0 "protocol.parse" t0 t1; Spans.span ~parent:0 "resolve" t1 t2 ]
  @ eval_spans
  @ [ Spans.span ~parent:0 "protocol.render" t3 t4 ]
