module Codec = Fx_util.Codec
module C = Fx_xml.Collection

(* A serving catalog is everything a disk-backed query server needs
   from the collection that the index files themselves do not carry:
   tag names, document roots, and anchor ids — all resolved to global
   node ids at save time. It is tiny next to the label store, so it is
   one flat Codec blob, not a paged file. All lookup structures are
   built once at load and only read afterwards, so a catalog is safe to
   share across worker domains. *)

type t = {
  n_nodes : int;
  tag_names : string array;
  tag_ids : (string, int) Hashtbl.t;
  docs : (string * int) array; (* (name, root node) in collection order *)
  doc_roots : (string, int) Hashtbl.t;
  anchors : (string * string, int) Hashtbl.t; (* (doc name, id) -> node *)
}

let magic = "fxcat1"

let index_tables names_roots anchor_list =
  let doc_roots = Hashtbl.create (2 * Array.length names_roots) in
  Array.iter (fun (name, root) -> Hashtbl.replace doc_roots name root) names_roots;
  let anchors = Hashtbl.create (2 * (1 + List.length anchor_list)) in
  List.iter (fun (key, node) -> Hashtbl.replace anchors key node) anchor_list;
  doc_roots, anchors

let of_collection c =
  let tag_names = Array.init (C.n_tags c) (C.tag_name c) in
  let tag_ids = Hashtbl.create (2 * Array.length tag_names) in
  Array.iteri (fun i name -> Hashtbl.replace tag_ids name i) tag_names;
  let docs = Array.init (C.n_docs c) (fun d -> (C.doc_name c d, C.root_of_doc c d)) in
  let anchor_list = C.anchors c in
  let doc_roots, anchors = index_tables docs anchor_list in
  { n_nodes = C.n_nodes c; tag_names; tag_ids; docs; doc_roots; anchors }

let save ~path t =
  let w = Codec.Writer.create ~magic in
  Codec.Writer.int w t.n_nodes;
  Codec.Writer.int w (Array.length t.tag_names);
  Array.iter (Codec.Writer.string w) t.tag_names;
  Codec.Writer.int w (Array.length t.docs);
  Array.iter
    (fun (name, root) ->
      Codec.Writer.string w name;
      Codec.Writer.int w root)
    t.docs;
  Codec.Writer.int w (Hashtbl.length t.anchors);
  Hashtbl.iter
    (fun (doc, id) node ->
      Codec.Writer.string w doc;
      Codec.Writer.string w id;
      Codec.Writer.int w node)
    t.anchors;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Codec.Writer.contents w))

let corrupt msg = raise (Codec.Corrupt ("Catalog: " ^ msg))

let counted ~what r =
  let n = Codec.Reader.int r in
  if n < 0 then corrupt ("negative " ^ what ^ " count");
  n

let load path =
  let ic = open_in_bin path in
  let blob =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let r = Codec.Reader.create ~magic blob in
  let n_nodes = Codec.Reader.int r in
  if n_nodes < 0 then corrupt "negative node count";
  let check_node v = if v < 0 || v >= n_nodes then corrupt "node id out of range" in
  let n_tags = counted ~what:"tag" r in
  let tag_names = Array.init n_tags (fun _ -> Codec.Reader.string r) in
  let tag_ids = Hashtbl.create (2 * n_tags) in
  Array.iteri (fun i name -> Hashtbl.replace tag_ids name i) tag_names;
  let n_docs = counted ~what:"document" r in
  let docs =
    Array.init n_docs (fun _ ->
        let name = Codec.Reader.string r in
        let root = Codec.Reader.int r in
        check_node root;
        (name, root))
  in
  let n_anchors = counted ~what:"anchor" r in
  let anchor_list =
    List.init n_anchors (fun _ ->
        let doc = Codec.Reader.string r in
        let id = Codec.Reader.string r in
        let node = Codec.Reader.int r in
        check_node node;
        ((doc, id), node))
  in
  Codec.Reader.expect_end r;
  let doc_roots, anchors = index_tables docs anchor_list in
  { n_nodes; tag_names; tag_ids; docs; doc_roots; anchors }

let n_nodes t = t.n_nodes
let n_docs t = Array.length t.docs
let n_tags t = Array.length t.tag_names
let tag_id t name = Hashtbl.find_opt t.tag_ids name

let node_of t ~doc ~anchor =
  match anchor with
  | None -> Hashtbl.find_opt t.doc_roots doc
  | Some id -> Hashtbl.find_opt t.anchors (doc, id)
