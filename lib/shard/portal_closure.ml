module Codec = Fx_util.Codec
module Two_hop = Fx_index.Two_hop
module Stopwatch = Fx_util.Stopwatch
module Run_merge = Fx_graph.Run_merge

(* The portal closure: an exact distance oracle over the shard plan's
   portal graph, built at shard-plan time and shipped in the manifest.
   Portal-to-portal (and anchor-to-portal) distances are then read
   from the 2-hop labels at the coordinator, nearest first, instead of
   from a cascade of probe RPCs. The oracle is stamped with the plan
   digest ([epoch]) so a closure can never be joined against a plan it
   was not built for. *)

(* One inverted label side over the targets of one direction: for every
   hub rank [h], the targets whose label holds [h] as (distance, index)
   keys packed by [Run_merge.pack], sorted ascending. *)
type inverted = { heads : int array; packed : int array }

type t = {
  epoch : int;
  build_us : int;
  nodes : int array;  (* sorted global ids: the portal graph's nodes *)
  labels : Two_hop.t;  (* over node indexes *)
  is_entry : bool array;  (* link targets, by node index *)
  is_exit : bool array;  (* link sources, by node index *)
  to_entries : inverted;  (* hub -> (d, entry portal), from the in-labels *)
  to_exits : inverted;  (* hub -> (d, exit portal), from the out-labels *)
}

let index_of nodes g =
  let lo = ref 0 and hi = ref (Array.length nodes - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = nodes.(mid) in
    if v = g then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < g then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

(* Counting sort of the targets' label entries by hub, then a sort of
   each hub's run. *)
let invert labels side is_target =
  let n = Array.length is_target in
  let bits = Run_merge.bits n in
  let heads = Array.make (n + 1) 0 in
  let each f =
    Array.iteri (fun v target -> if target then Two_hop.iter_label labels side v (f v)) is_target
  in
  each (fun _ h _ -> heads.(h + 1) <- heads.(h + 1) + 1);
  for h = 1 to n do
    heads.(h) <- heads.(h) + heads.(h - 1)
  done;
  let packed = Array.make heads.(n) 0 in
  let fill = Array.sub heads 0 n in
  each (fun v h d ->
      packed.(fill.(h)) <- Run_merge.pack ~bits d v;
      fill.(h) <- fill.(h) + 1);
  for h = 0 to n - 1 do
    let run = Array.sub packed heads.(h) (heads.(h + 1) - heads.(h)) in
    Array.sort Int.compare run;
    Array.blit run 0 packed heads.(h) (Array.length run)
  done;
  { heads; packed }

(* Invert the labels once, at build or load: the plan's link targets
   are the entry portals and its link sources the exit portals. *)
let make ~plan ~epoch ~build_us ~nodes ~labels =
  let n = Array.length nodes in
  let is_entry = Array.make n false and is_exit = Array.make n false in
  let mark set g = Option.iter (fun i -> set.(i) <- true) (index_of nodes g) in
  Array.iter
    (fun (l : Shard_plan.cross_link) ->
      mark is_entry l.dst;
      mark is_exit l.src)
    (Shard_plan.cross_links plan);
  {
    epoch;
    build_us;
    nodes;
    labels;
    is_entry;
    is_exit;
    to_entries = invert labels Two_hop.In is_entry;
    to_exits = invert labels Two_hop.Out is_exit;
  }

let build ~plan ~local_dist =
  let sw = Stopwatch.start () in
  let g = Portal_graph.build ~plan ~local_dist in
  let labels = Two_hop.build_weighted ~n:(Portal_graph.n_nodes g) (Portal_graph.edges g) in
  make ~plan ~epoch:(Shard_plan.digest plan)
    ~build_us:(Int64.to_int (Int64.div (Stopwatch.elapsed_ns sw) 1_000L))
    ~nodes:(Portal_graph.nodes g) ~labels

let epoch t = t.epoch
let build_seconds t = float_of_int t.build_us /. 1e6
let n_nodes t = Array.length t.nodes
let label_entries t = Two_hop.entries t.labels
let matches t plan = t.epoch = Shard_plan.digest plan
let index t g = index_of t.nodes g
let node t i = t.nodes.(i)

let distance_at t i j = Two_hop.distance t.labels i j

let distance t a b =
  match (index t a, index t b) with
  | Some i, Some j -> distance_at t i j
  | _ -> None

(* --- nearest-first enumeration ------------------------------------------ *)

type toward = Entries | Exits

(* A walk down one hub's inverted run from [base], the packed offset of
   the hub's nearest seed plus its label distance to the hub. A seed
   that is itself a target is a one-key run of its own. *)
type cursor = { base : int; run : int array; mutable pos : int; stop : int }

let step c =
  if c.pos < c.stop then begin
    c.pos <- c.pos + 1;
    c.base + c.run.(c.pos - 1)
  end
  else -1

(* The distance merge (DESIGN.md) over the seeds' hubs: a target's first
   pop is the min-plus join {!distance} computes, over every seed at
   once. Only the nearest seed of a hub can win through it, so each hub
   is walked once, from that seed's base. *)
let nearest t toward ?on_pop seeds =
  let bits = Run_merge.bits (n_nodes t) in
  let inv, side, is_target =
    match toward with
    | Entries -> (t.to_entries, Two_hop.Out, t.is_entry)
    | Exits -> (t.to_exits, Two_hop.In, t.is_exit)
  in
  let m = Run_merge.create ~bits ?on_pop ~emit:(fun _ v d -> (v, d)) step in
  let hubs = Hashtbl.create 64 in
  List.iter
    (fun (v, offset) ->
      if is_target.(v) then
        Run_merge.add m { base = Run_merge.pack ~bits offset 0; run = [| v |]; pos = 0; stop = 1 };
      Two_hop.iter_label t.labels side v (fun h d ->
          match Hashtbl.find_opt hubs h with
          | Some base when base <= offset + d -> ()
          | Some _ | None -> Hashtbl.replace hubs h (offset + d)))
    seeds;
  Hashtbl.iter
    (fun h base ->
      Run_merge.add m
        { base = Run_merge.pack ~bits base 0; run = inv.packed; pos = inv.heads.(h);
          stop = inv.heads.(h + 1) })
    hubs;
  fun () -> Run_merge.next m

let describe t =
  Printf.sprintf "portal closure: %d nodes, %d label entries, built in %.3f s"
    (n_nodes t) (label_entries t) (build_seconds t)

(* --- the versioned manifest ------------------------------------------- *)

let manifest_magic = "FXSHARDMAN2"

let corrupt fmt = Printf.ksprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* The closure section opens with a flag word that is always 1; the
   loader refuses a flag-0 manifest, which carries no closure. *)
let save_manifest ~path ~plan c =
  let w = Codec.Writer.create ~magic:manifest_magic in
  Shard_plan.write_body w plan;
  Codec.Writer.int w 1;
  Codec.Writer.int w c.epoch;
  Codec.Writer.int w c.build_us;
  Codec.Writer.int_array w c.nodes;
  Codec.Writer.string w (Two_hop.serialize c.labels);
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Codec.Writer.contents w))

let read_closure r ~plan =
  let total_nodes = Shard_plan.total_nodes plan in
  match Codec.Reader.int r with
  | 0 -> corrupt "manifest has no portal closure; rebuild with --build-shards"
  | 1 ->
      let epoch = Codec.Reader.int r in
      let build_us = Codec.Reader.int r in
      if epoch < 0 then corrupt "manifest: negative closure epoch";
      if build_us < 0 then corrupt "manifest: negative closure build time";
      let nodes = Codec.Reader.int_array r in
      Array.iteri
        (fun i g ->
          if g < 0 || g >= total_nodes then
            corrupt "manifest: closure node %d outside %d nodes" g total_nodes;
          if i > 0 && nodes.(i - 1) >= g then
            corrupt "manifest: closure nodes not strictly ascending")
        nodes;
      let labels = Two_hop.deserialize (Codec.Reader.string r) in
      if Two_hop.n_nodes labels <> Array.length nodes then
        corrupt "manifest: closure labels cover %d nodes, table has %d"
          (Two_hop.n_nodes labels) (Array.length nodes);
      make ~plan ~epoch ~build_us ~nodes ~labels
  | flag -> corrupt "manifest: bad closure flag %d" flag

let load_manifest path =
  let ic = open_in_bin path in
  let body =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if not (String.starts_with ~prefix:manifest_magic body) then
    corrupt
      "%s is not an %s manifest (v1 FXSHARDMAN1 manifests carry no portal closure); \
       rebuild with --build-shards"
      path manifest_magic;
  let r = Codec.Reader.create ~magic:manifest_magic body in
  let plan = Shard_plan.read_body r in
  let closure = read_closure r ~plan in
  Codec.Reader.expect_end r;
  (plan, closure)
