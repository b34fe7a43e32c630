module Digraph = Fx_graph.Digraph

type link = { src : int; dst : int; inter : bool }
type dangling = { src_doc : string; src_node : int; reference : string }

type t = {
  docs : Xml_types.document array;
  n_nodes : int;
  graph : Digraph.t;
  tree_graph : Digraph.t;
  tag : int array;
  tag_names : string array;
  tag_ids : (string, int) Hashtbl.t;
  tag_off : int array; (* length n_tags+1: row of tag i is tag_nodes.(tag_off.(i)..) *)
  tag_nodes : int array; (* node ids grouped by tag, ascending within a row *)
  doc_of_node : int array;
  root_of_doc : int array;
  doc_ids : (string, int) Hashtbl.t;
  elements : Xml_types.element array;
  anchor_tbl : (string * string, int) Hashtbl.t; (* (doc name, id) -> node *)
  links : link list;
  n_intra : int;
  n_inter : int;
  dangling : dangling list;
}

let build docs_list =
  let docs = Array.of_list docs_list in
  let n_docs = Array.length docs in
  let doc_ids = Hashtbl.create (2 * n_docs) in
  Array.iteri
    (fun i (d : Xml_types.document) ->
      if Hashtbl.mem doc_ids d.name then
        invalid_arg (Printf.sprintf "Collection.build: duplicate document name %S" d.name);
      Hashtbl.add doc_ids d.name i)
    docs;
  (* Number elements: documents in order, preorder inside a document. *)
  let doc_offset = Array.make (n_docs + 1) 0 in
  Array.iteri
    (fun i (d : Xml_types.document) ->
      doc_offset.(i + 1) <- doc_offset.(i) + Xml_types.count_elements d.root)
    docs;
  let n_nodes = doc_offset.(n_docs) in
  let tag = Array.make n_nodes 0 in
  let doc_of_node = Array.make n_nodes 0 in
  let elements = Array.make n_nodes (Xml_types.elt "_" []) in
  let tag_ids = Hashtbl.create 64 in
  let tag_names_rev = ref [] in
  let n_tag = ref 0 in
  let intern name =
    match Hashtbl.find_opt tag_ids name with
    | Some i -> i
    | None ->
        let i = !n_tag in
        incr n_tag;
        Hashtbl.add tag_ids name i;
        tag_names_rev := name :: !tag_names_rev;
        i
  in
  let tree_edges = ref [] in
  let root_of_doc = Array.make n_docs 0 in
  Array.iteri
    (fun d (doc : Xml_types.document) ->
      let counter = ref (doc_offset.(d) - 1) in
      root_of_doc.(d) <- doc_offset.(d);
      (* Recursive numbering so that parent ids are at hand for edges. *)
      let rec go (el : Xml_types.element) =
        incr counter;
        let me = !counter in
        tag.(me) <- intern el.tag;
        doc_of_node.(me) <- d;
        elements.(me) <- el;
        List.iter
          (function
            | Xml_types.Element c ->
                let child = go c in
                tree_edges := (me, child) :: !tree_edges
            | Xml_types.Text _ | Xml_types.Cdata _ | Xml_types.Comment _
            | Xml_types.Pi _ -> ())
          el.children;
        me
      in
      ignore (go doc.root))
    docs;
  (* Resolve links. *)
  let anchor_tbl = Hashtbl.create 256 in
  let raws = Array.map Link_resolver.scan docs in
  Array.iteri
    (fun d (raw : Link_resolver.raw) ->
      List.iter
        (fun (id, idx) ->
          let key = (docs.(d).Xml_types.name, id) in
          if not (Hashtbl.mem anchor_tbl key) then
            Hashtbl.add anchor_tbl key (doc_offset.(d) + idx))
        raw.anchors)
    raws;
  let links = ref [] and dangling = ref [] in
  let n_intra = ref 0 and n_inter = ref 0 in
  let add_link src dst =
    let inter = doc_of_node.(src) <> doc_of_node.(dst) in
    if inter then incr n_inter else incr n_intra;
    links := { src; dst; inter } :: !links
  in
  Array.iteri
    (fun d (raw : Link_resolver.raw) ->
      let dname = docs.(d).Xml_types.name in
      List.iter
        (fun (idx, id) ->
          let src = doc_offset.(d) + idx in
          match Hashtbl.find_opt anchor_tbl (dname, id) with
          | Some dst -> add_link src dst
          | None -> dangling := { src_doc = dname; src_node = src; reference = id } :: !dangling)
        raw.idrefs;
      List.iter
        (fun (idx, (href : Link_resolver.href)) ->
          let src = doc_offset.(d) + idx in
          let target_doc = Option.value ~default:dname href.doc in
          match (Hashtbl.find_opt doc_ids target_doc, href.anchor) with
          | None, _ ->
              let reference = target_doc ^ Option.fold ~none:"" ~some:(fun a -> "#" ^ a) href.anchor in
              dangling := { src_doc = dname; src_node = src; reference } :: !dangling
          | Some td, None -> add_link src root_of_doc.(td)
          | Some _, Some anchor -> begin
              match Hashtbl.find_opt anchor_tbl (target_doc, anchor) with
              | Some dst -> add_link src dst
              | None ->
                  dangling :=
                    { src_doc = dname; src_node = src; reference = target_doc ^ "#" ^ anchor }
                    :: !dangling
            end)
        raw.hrefs)
    raws;
  let links = List.rev !links in
  (* Per-tag node rows by counting sort on the tag; ascending node order
     within a row falls out of the ascending fill. *)
  let tag_off = Array.make (!n_tag + 1) 0 in
  Array.iter (fun g -> tag_off.(g + 1) <- tag_off.(g + 1) + 1) tag;
  for i = 1 to !n_tag do
    tag_off.(i) <- tag_off.(i) + tag_off.(i - 1)
  done;
  let tag_nodes = Array.make n_nodes 0 in
  let cursor = Array.sub tag_off 0 !n_tag in
  Array.iteri
    (fun v g ->
      tag_nodes.(cursor.(g)) <- v;
      cursor.(g) <- cursor.(g) + 1)
    tag;
  let tree_graph = Digraph.of_edges ~n:n_nodes !tree_edges in
  let all_edges = List.rev_append !tree_edges (List.map (fun l -> (l.src, l.dst)) links) in
  let graph = Digraph.of_edges ~n:n_nodes all_edges in
  {
    docs;
    n_nodes;
    graph;
    tree_graph;
    tag;
    tag_names = Array.of_list (List.rev !tag_names_rev);
    tag_ids;
    tag_off;
    tag_nodes;
    doc_of_node;
    root_of_doc;
    doc_ids;
    elements;
    anchor_tbl;
    links;
    n_intra = !n_intra;
    n_inter = !n_inter;
    dangling = List.rev !dangling;
  }

let n_nodes t = t.n_nodes
let n_docs t = Array.length t.docs
let documents t = Array.to_list t.docs
let graph t = t.graph
let tree_graph t = t.tree_graph
let links t = t.links
let n_intra_links t = t.n_intra
let n_inter_links t = t.n_inter
let dangling_refs t = t.dangling
let tag t = t.tag
let tag_id t name = Hashtbl.find_opt t.tag_ids name
let tag_name t i = t.tag_names.(i)
let n_tags t = Array.length t.tag_names
let doc_of_node t v = t.doc_of_node.(v)
let doc_name t d = t.docs.(d).Xml_types.name
let root_of_doc t d = t.root_of_doc.(d)
let doc_of_name t name = Hashtbl.find_opt t.doc_ids name
let element t v = t.elements.(v)

let node_of_anchor t ~doc ~anchor = Hashtbl.find_opt t.anchor_tbl (doc, anchor)

let anchors t = Hashtbl.fold (fun key node acc -> (key, node) :: acc) t.anchor_tbl []

let tag_slice t name =
  match tag_id t name with
  | None -> ([||], 0, 0)
  | Some id -> (t.tag_nodes, t.tag_off.(id), t.tag_off.(id + 1))

let find_by_tag t name =
  let nodes, lo, hi = tag_slice t name in
  List.init (hi - lo) (fun i -> nodes.(lo + i))

let text_of_node t v = Xml_types.direct_text t.elements.(v)

let describe t v =
  let el = t.elements.(v) in
  let key =
    match (Xml_types.attr el "key", Xml_types.attr el "id") with
    | Some k, _ -> Printf.sprintf ", key=%s" k
    | None, Some id -> Printf.sprintf ", id=%s" id
    | None, None -> ""
  in
  Printf.sprintf "%s:/%s[node %d%s]" (doc_name t t.doc_of_node.(v)) el.tag v key

let stats t =
  Printf.sprintf "%d documents, %d elements, %d links (%d intra, %d inter), %d tag names%s"
    (n_docs t) t.n_nodes (t.n_intra + t.n_inter) t.n_intra t.n_inter
    (Array.length t.tag_names)
    (if t.dangling = [] then "" else Printf.sprintf ", %d dangling refs" (List.length t.dangling))
