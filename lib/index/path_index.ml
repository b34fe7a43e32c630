type data_graph = { graph : Fx_graph.Digraph.t; tag : int array }

let n_tags dg = 1 + Array.fold_left max (-1) dg.tag

type build_stats = {
  strategy : string;
  build_ns : int64;
  entries : int;
  size_bytes : int;
}

type instance = {
  name : string;
  n_nodes : int;
  reachable : int -> int -> bool;
  distance : int -> int -> int option;
  descendants_by_tag : int -> int option -> (int * int) list;
  ancestors_by_tag : int -> int option -> (int * int) list;
  restricted_descendants : Fx_graph.Bitset.t -> int -> (int * int) list;
  restricted_ancestors : Fx_graph.Bitset.t -> int -> (int * int) list;
  stats : build_stats;
}

let nodes_by_tag dg =
  let k = n_tags dg in
  let counts = Array.make k 0 in
  Array.iter (fun t -> counts.(t) <- counts.(t) + 1) dg.tag;
  let out = Array.init k (fun t -> Array.make counts.(t) 0) in
  let cursor = Array.make k 0 in
  Array.iteri
    (fun v t ->
      out.(t).(cursor.(t)) <- v;
      cursor.(t) <- cursor.(t) + 1)
    dg.tag;
  out

let sort_results rs =
  List.sort_uniq
    (fun (v1, d1) (v2, d2) ->
      match Int.compare d1 d2 with 0 -> Int.compare v1 v2 | c -> c)
    rs

let check_instance_agrees a b ~samples =
  List.for_all
    (fun (u, v) -> a.reachable u v = b.reachable u v && a.distance u v = b.distance u v)
    samples
