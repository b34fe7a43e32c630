(* The weighted portal graph: the cross-shard skeleton of a shard plan,
   over which the portal closure precomputes distances.

   Nodes are the portals — endpoints of cross-shard links — plus every
   document root as an anchor (source-only) node. Edges are (a) the
   cross links themselves at weight 1 and (b), per shard, a segment
   edge from every portal-graph source located in the shard (entry
   portal or anchor root) to every exit portal (link source) of the
   same shard, weighted by the shard-local shortest-path distance
   between them. Any global path decomposes into within-shard segments
   joined by unit link hops, so graph distance here equals the exact
   global distance — the argument the closure rests on (see
   DESIGN.md). *)

type t = {
  nodes : int array;  (* sorted distinct global node ids *)
  edges : (int * int * int) array;  (* (node index, node index, weight) *)
}

let n_nodes t = Array.length t.nodes
let nodes t = t.nodes
let edges t = t.edges

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

let build ~plan ~local_dist =
  let links = Shard_plan.cross_links plan in
  let n_shards = Shard_plan.n_shards plan in
  let ids =
    Array.concat
      [
        Array.map (fun (l : Shard_plan.cross_link) -> l.src) links;
        Array.map (fun (l : Shard_plan.cross_link) -> l.dst) links;
        Shard_plan.doc_roots plan;
      ]
  in
  Array.sort Int.compare ids;
  let nodes =
    let out = ref [] and n = Array.length ids in
    for i = n - 1 downto 0 do
      if i = 0 || ids.(i) <> ids.(i - 1) then out := ids.(i) :: !out
    done;
    Array.of_list !out
  in
  let t = { nodes; edges = [||] } in
  let idx g =
    match index_of t g with
    | Some i -> i
    | None -> assert false (* every queried id was collected above *)
  in
  (* Per shard: the sources (entry portals and anchor roots, deduped)
     and the exits (link sources, deduped), with their local ids. *)
  let sources = Array.make n_shards [] in
  let exits = Array.make n_shards [] in
  let seen_src = Hashtbl.create 256 and seen_exit = Hashtbl.create 256 in
  let add_source g =
    if not (Hashtbl.mem seen_src g) then begin
      Hashtbl.replace seen_src g ();
      let shard, local = Shard_plan.locate plan g in
      sources.(shard) <- (idx g, local) :: sources.(shard)
    end
  in
  Array.iter (fun (l : Shard_plan.cross_link) -> add_source l.dst) links;
  Array.iter add_source (Shard_plan.doc_roots plan);
  Array.iter
    (fun (l : Shard_plan.cross_link) ->
      if not (Hashtbl.mem seen_exit l.src) then begin
        Hashtbl.replace seen_exit l.src ();
        let shard, local = Shard_plan.locate plan l.src in
        exits.(shard) <- (idx l.src, local) :: exits.(shard)
      end)
    links;
  (* Edge set, deduplicated on (from, to) keeping the smallest weight:
     several links can share an endpoint pair, and a node that is both
     entry and exit would otherwise collect a 0-weight self edge. *)
  let n = Array.length nodes in
  let best = Hashtbl.create (Array.length links * 2) in
  let add_edge u v w =
    if u <> v then
      let key = (u * n) + v in
      match Hashtbl.find_opt best key with
      | Some w' when w' <= w -> ()
      | _ -> Hashtbl.replace best key w
  in
  Array.iter
    (fun (l : Shard_plan.cross_link) -> add_edge (idx l.src) (idx l.dst) 1)
    links;
  Array.iteri
    (fun shard srcs ->
      List.iter
        (fun (u, u_local) ->
          List.iter
            (fun (x, x_local) ->
              match local_dist ~shard ~a:u_local ~b:x_local with
              | Some w -> add_edge u x w
              | None -> ())
            exits.(shard))
        srcs)
    sources;
  let edges =
    Hashtbl.fold (fun key w acc -> (key / n, key mod n, w) :: acc) best []
    |> List.sort (fun (u1, v1, _) (u2, v2, _) ->
           match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c)
    |> Array.of_list
  in
  { nodes; edges }
