module Digraph = Fx_graph.Digraph
module Bitset = Fx_graph.Bitset
module Collection = Fx_xml.Collection

type t = {
  id : int;
  nodes : int array;
  graph : Digraph.t;
  tag : int array;
  out_links : int list array;
  link_nodes : Bitset.t;
  in_links : int list array;
  in_link_nodes : Bitset.t;
}

let n_nodes t = Array.length t.nodes
let global_of_local t l = t.nodes.(l)
let data_graph t = { Fx_index.Path_index.graph = t.graph; tag = t.tag }

let n_out_links t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.out_links

type registry = {
  metas : t array;
  meta_of_node : int array;
  local_of_node : int array;
  reach : Fx_graph.Reach_filter.t;
}

(* The document-grain filter is built from the collection's links, not
   from the meta documents, so every partition (element-level included)
   gets the same sound filter. Intra-document links fall inside one group
   and the filter drops them. *)
let reach_filter c =
  Fx_graph.Reach_filter.build ~n_groups:(Collection.n_docs c)
    ~group_of:(Array.init (Collection.n_nodes c) (Collection.doc_of_node c))
    (List.map (fun (l : Collection.link) -> (l.src, l.dst)) (Collection.links c))

let build_registry c ~part ~n_parts ~include_link =
  let n = Collection.n_nodes c in
  if Array.length part <> n then invalid_arg "Meta_document.build_registry: part length";
  (* Local numbering: nodes of one partition in ascending global order. *)
  let sizes = Array.make n_parts 0 in
  Array.iter
    (fun p ->
      if p < 0 || p >= n_parts then invalid_arg "Meta_document.build_registry: bad part id";
      sizes.(p) <- sizes.(p) + 1)
    part;
  let nodes = Array.init n_parts (fun p -> Array.make sizes.(p) 0) in
  let local_of_node = Array.make n 0 in
  let cursor = Array.make n_parts 0 in
  for v = 0 to n - 1 do
    let p = part.(v) in
    nodes.(p).(cursor.(p)) <- v;
    local_of_node.(v) <- cursor.(p);
    cursor.(p) <- cursor.(p) + 1
  done;
  (* Internal edges: tree edges within a partition plus the included
     links. Document-granular builders never split a document, but the
     element-level builder may: a parent-child edge crossing partitions
     is then kept as a run-time link like any other edge (its length is
     1, exactly a link hop). *)
  let internal = Array.make n_parts [] in
  let out_links = Array.init n_parts (fun p -> Array.make sizes.(p) []) in
  let in_links = Array.init n_parts (fun p -> Array.make sizes.(p) []) in
  let add_runtime_edge u v =
    let lu = local_of_node.(u) and lv = local_of_node.(v) in
    out_links.(part.(u)).(lu) <- v :: out_links.(part.(u)).(lu);
    in_links.(part.(v)).(lv) <- u :: in_links.(part.(v)).(lv)
  in
  Digraph.iter_edges (Collection.tree_graph c) (fun u v ->
      let p = part.(u) in
      if part.(v) = p then
        internal.(p) <- (local_of_node.(u), local_of_node.(v)) :: internal.(p)
      else add_runtime_edge u v);
  List.iter
    (fun (l : Collection.link) ->
      let pu = part.(l.src) and pv = part.(l.dst) in
      if pu = pv && include_link l then
        internal.(pu) <- (local_of_node.(l.src), local_of_node.(l.dst)) :: internal.(pu)
      else begin
        ignore pv;
        add_runtime_edge l.src l.dst
      end)
    (Collection.links c);
  let tag = Collection.tag c in
  let metas =
    Array.init n_parts (fun p ->
        let local_n = sizes.(p) in
        let link_nodes = Bitset.create local_n in
        Array.iteri (fun l targets -> if targets <> [] then Bitset.add link_nodes l) out_links.(p);
        let in_link_nodes = Bitset.create local_n in
        Array.iteri (fun l srcs -> if srcs <> [] then Bitset.add in_link_nodes l) in_links.(p);
        {
          id = p;
          nodes = nodes.(p);
          graph = Digraph.of_edges ~n:local_n internal.(p);
          tag = Array.map (fun v -> tag.(v)) nodes.(p);
          out_links = out_links.(p);
          link_nodes;
          in_links = in_links.(p);
          in_link_nodes;
        })
  in
  { metas; meta_of_node = Array.copy part; local_of_node; reach = reach_filter c }

let total_out_links reg = Array.fold_left (fun acc m -> acc + n_out_links m) 0 reg.metas

let find reg v = (reg.metas.(reg.meta_of_node.(v)), reg.local_of_node.(v))
