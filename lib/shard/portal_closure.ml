module Codec = Fx_util.Codec
module Two_hop = Fx_index.Two_hop
module Stopwatch = Fx_util.Stopwatch

(* The portal closure: an exact distance oracle over the shard plan's
   portal graph, built at shard-plan time and shipped in the manifest.
   Any portal-to-portal (or anchor-to-portal) distance is then one
   2-hop label join at the coordinator instead of a cascade of probe
   RPCs. The oracle is stamped with the plan digest ([epoch]) so a
   closure can never be joined against a plan it was not built for. *)

type t = {
  epoch : int;
  build_us : int;
  nodes : int array;  (* sorted global ids: the portal graph's nodes *)
  labels : Two_hop.t;  (* over node indexes *)
}

let build ~plan ~local_dist =
  let sw = Stopwatch.start () in
  let g = Portal_graph.build ~plan ~local_dist in
  let labels = Two_hop.build_weighted ~n:(Portal_graph.n_nodes g) (Portal_graph.edges g) in
  {
    epoch = Shard_plan.digest plan;
    build_us = Int64.to_int (Int64.div (Stopwatch.elapsed_ns sw) 1_000L);
    nodes = Portal_graph.nodes g;
    labels;
  }

let epoch t = t.epoch
let build_seconds t = float_of_int t.build_us /. 1e6
let n_nodes t = Array.length t.nodes
let label_entries t = Two_hop.entries t.labels
let matches t plan = t.epoch = Shard_plan.digest plan

let index_of t g =
  let lo = ref 0 and hi = ref (Array.length t.nodes - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.nodes.(mid) in
    if v = g then begin
      found := mid;
      lo := !hi + 1
    end
    else if v < g then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then None else Some !found

let distance t a b =
  match (index_of t a, index_of t b) with
  | Some i, Some j -> Two_hop.distance t.labels i j
  | _ -> None

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

let read_closure r ~total_nodes =
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
      { epoch; build_us; nodes; labels }
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
  let closure = read_closure r ~total_nodes:(Shard_plan.total_nodes plan) in
  Codec.Reader.expect_end r;
  (plan, closure)
