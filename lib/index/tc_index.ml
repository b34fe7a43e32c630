module Tc = Fx_graph.Transitive_closure
module Bitset = Fx_graph.Bitset

type t = { dg : Path_index.data_graph; tc : Tc.t; rev_tc : Tc.t }

let build (dg : Path_index.data_graph) =
  {
    dg;
    tc = Tc.compute dg.graph;
    rev_tc = Tc.compute (Fx_graph.Digraph.reverse dg.graph);
  }

let reachable t x y = Tc.reachable t.tc x y
let distance t x y = Tc.distance t.tc x y

let filter_tag t want results =
  match want with
  | None -> results
  | Some w -> List.filter (fun (v, _) -> t.dg.Path_index.tag.(v) = w) results

let with_self t x want results =
  let matches = match want with None -> true | Some w -> t.dg.Path_index.tag.(x) = w in
  if matches then (x, 0) :: results else results

let descendants_by_tag t x want =
  with_self t x want (filter_tag t want (Tc.reach_set t.tc x))

let ancestors_by_tag t x want =
  with_self t x want (filter_tag t want (Tc.reach_set t.rev_tc x))

let restricted_descendants t set x =
  let rest = List.filter (fun (v, _) -> Bitset.mem set v) (Tc.reach_set t.tc x) in
  if Bitset.mem set x then (x, 0) :: rest else rest

let restricted_ancestors t set x =
  let rest = List.filter (fun (v, _) -> Bitset.mem set v) (Tc.reach_set t.rev_tc x) in
  if Bitset.mem set x then (x, 0) :: rest else rest

let size_bytes t = Tc.size_bytes t.tc

let instance dg =
  let t, build_ns = Fx_util.Stopwatch.time_ns (fun () -> build dg) in
  {
    Path_index.name = "TC";
    n_nodes = Fx_graph.Digraph.n_nodes dg.Path_index.graph;
    reachable = reachable t;
    distance = distance t;
    descendants_by_tag = descendants_by_tag t;
    ancestors_by_tag = ancestors_by_tag t;
    restricted_descendants = restricted_descendants t;
    restricted_ancestors = restricted_ancestors t;
    stats =
      { strategy = "TC"; build_ns; entries = Tc.n_pairs t.tc; size_bytes = size_bytes t };
  }
