module Collection = Fx_xml.Collection

type t = {
  collection : Collection.t;
  config : Meta_builder.config;
  registry : Meta_document.registry;
  built : Index_builder.t;
  pee : Pee.t;
}

let build ?(config = Meta_builder.default_hybrid) ?policy collection =
  let registry = Meta_builder.build config collection in
  let built = Index_builder.build ?policy registry in
  { collection; config; registry; built; pee = Pee.create built }

let collection t = t.collection

(* Appending documents keeps existing global node ids (numbering is by
   document order, preorder within a document), so document-granular
   configurations leave most meta documents structurally unchanged and
   the index builder reuses their indexes. *)
let extend t new_docs =
  let collection = Collection.build (Collection.documents t.collection @ new_docs) in
  let registry = Meta_builder.build t.config collection in
  let built = Index_builder.build ~reuse:t.built registry in
  { collection; config = t.config; registry; built; pee = Pee.create built }

let remove t names =
  let keep =
    List.filter
      (fun (d : Fx_xml.Xml_types.document) -> not (List.mem d.name names))
      (Collection.documents t.collection)
  in
  if List.length keep = List.length (Collection.documents t.collection) then t
  else begin
    let collection = Collection.build keep in
    let registry = Meta_builder.build t.config collection in
    (* Node ids shift after the first removed document, so reuse only
       helps for the unchanged prefix — still free when dropping recent
       additions. *)
    let built = Index_builder.build ~reuse:t.built registry in
    { collection; config = t.config; registry; built; pee = Pee.create built }
  end

let rebuild ?config ?policy t =
  let config = Option.value config ~default:t.config in
  let registry = Meta_builder.build config t.collection in
  let built = Index_builder.build ?policy ~reuse:t.built registry in
  { collection = t.collection; config; registry; built; pee = Pee.create built }
let registry t = t.registry
let built t = t.built
let pee t = t.pee

(* An unknown tag name matches nothing; tag id -1 is the PEE's "match
   nothing" sentinel, distinct from None = wildcard. *)
let tag_arg t = function
  | None -> None
  | Some name -> Some (Option.value ~default:(-1) (Collection.tag_id t.collection name))

let descendants ?tag ?max_dist t ~start =
  Pee.descendants ?tag:(tag_arg t tag) ?max_dist t.pee ~start

let ancestors ?tag ?max_dist t ~start =
  Pee.ancestors ?tag:(tag_arg t tag) ?max_dist t.pee ~start

let descendants_exact ?tag ?max_dist t ~start =
  Pee.descendants_exact ?tag:(tag_arg t tag) ?max_dist t.pee ~start

let evaluate ?max_dist t ~start_tag ~target_tag =
  let starts, lo, hi = Collection.tag_slice t.collection start_tag in
  Pee.descendants_multi_slice ?tag:(tag_arg t (Some target_tag)) ?max_dist t.pee ~starts ~lo ~hi

let connected ?max_dist t a b = Pee.connected ?max_dist t.pee a b
let connected_bidir ?max_dist t a b = Pee.connected_bidir ?max_dist t.pee a b

let node_of t ~doc ~anchor =
  match Collection.doc_of_name t.collection doc with
  | None -> None
  | Some d -> begin
      match anchor with
      | None -> Some (Collection.root_of_doc t.collection d)
      | Some a -> Collection.node_of_anchor t.collection ~doc ~anchor:a
    end

let describe t (item : Pee.item) =
  Printf.sprintf "%s at distance %d" (Collection.describe t.collection item.node) item.dist

let index_size_bytes t = Index_builder.total_size_bytes t.built

let report t =
  let reach = t.registry.Meta_document.reach in
  Printf.sprintf
    "FliX [%s]\ncollection: %s\n%sreach filter: %d documents, %d components (built in %.1f ms)\n"
    (Meta_builder.config_to_string t.config)
    (Collection.stats t.collection)
    (Index_builder.report t.built)
    (Fx_graph.Reach_filter.n_groups reach)
    (Fx_graph.Reach_filter.n_components reach)
    (Fx_graph.Reach_filter.build_ms reach)

let true_distance t a b = Fx_graph.Traversal.distance (Collection.graph t.collection) a b
