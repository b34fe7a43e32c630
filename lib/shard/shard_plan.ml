module C = Fx_xml.Collection
module Meta_builder = Fx_flix.Meta_builder
module Codec = Fx_util.Codec

type cross_link = { src : int; dst : int; dst_tag : string }

(* One document of the plan. Global node ids are contiguous per
   document (documents in collection order, preorder within), and a
   shard's sub-collection repeats that numbering over its own document
   subsequence — so both id spaces are described entirely by base
   offsets, and translation is a binary search plus an addition. *)
type doc_info = {
  name : string;
  global_base : int;
  n_nodes : int;
  shard : int;
  local_base : int;
}

type t = {
  n_shards : int;
  total_nodes : int;
  docs : doc_info array;  (* ascending global_base *)
  by_shard : doc_info array array;  (* per shard, ascending local_base *)
  by_name : (string, doc_info) Hashtbl.t;  (* immutable after [finish] *)
  cross : cross_link array;
}

let n_shards t = t.n_shards
let total_nodes t = t.total_nodes
let cross_links t = t.cross
let shard_n_docs t s = Array.length t.by_shard.(s)

let shard_n_nodes t s =
  Array.fold_left (fun acc d -> acc + d.n_nodes) 0 t.by_shard.(s)

(* Rightmost entry with [base key <= x] in an array ascending on the
   projected base. *)
let find_covering arr ~base x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if base arr.(mid) <= x then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best < 0 then None else Some arr.(!best)

let locate t g =
  match find_covering t.docs ~base:(fun d -> d.global_base) g with
  | Some d when g < d.global_base + d.n_nodes -> (d.shard, d.local_base + (g - d.global_base))
  | _ -> invalid_arg (Printf.sprintf "Shard_plan.locate: node %d outside the plan" g)

let global_of t ~shard ~local =
  if shard < 0 || shard >= t.n_shards then
    invalid_arg (Printf.sprintf "Shard_plan.global_of: no shard %d" shard)
  else
    match find_covering t.by_shard.(shard) ~base:(fun d -> d.local_base) local with
    | Some d when local < d.local_base + d.n_nodes ->
        d.global_base + (local - d.local_base)
    | _ ->
        invalid_arg
          (Printf.sprintf "Shard_plan.global_of: local node %d outside shard %d" local
             shard)

let doc_root t name =
  Option.map (fun d -> (d.shard, d.global_base)) (Hashtbl.find_opt t.by_name name)

let shard_of_doc t name = Option.map fst (doc_root t name)

(* --- construction ---------------------------------------------------- *)

(* Derive [by_shard] (with local bases) from the flat doc array; shared
   by [plan] and [read_body]. *)
let finish ~n_shards ~total_nodes ~docs ~cross =
  let by_shard =
    Array.init n_shards (fun s ->
        Array.of_list (List.filter (fun d -> d.shard = s) (Array.to_list docs)))
  in
  Array.iter
    (fun shard_docs ->
      let base = ref 0 in
      Array.iteri
        (fun i d ->
          shard_docs.(i) <- { d with local_base = !base };
          base := !base + d.n_nodes)
        shard_docs)
    by_shard;
  (* Propagate the computed local bases back into the flat view; the
     same table answers name lookups for the plan's lifetime. *)
  let by_name = Hashtbl.create (Array.length docs) in
  Array.iter
    (fun shard_docs -> Array.iter (fun d -> Hashtbl.replace by_name d.name d) shard_docs)
    by_shard;
  let docs = Array.map (fun d -> Hashtbl.find by_name d.name) docs in
  { n_shards; total_nodes; docs; by_shard; by_name; cross }

let plan ?(config = Meta_builder.default_hybrid) ~n_shards coll =
  if n_shards < 1 then invalid_arg "Shard_plan.plan: n_shards must be >= 1";
  if C.n_docs coll = 0 then invalid_arg "Shard_plan.plan: empty collection";
  (match config with
  | Meta_builder.Element_level _ ->
      invalid_arg
        "Shard_plan.plan: Element_level partitions split documents and cannot \
         define shards"
  | _ -> ());
  let registry = Meta_builder.build config coll in
  let n_docs = C.n_docs coll in
  (* Document sizes from the id layout: a document's nodes run from its
     root id up to the next root (or the end of the collection). *)
  let bases = Array.init n_docs (C.root_of_doc coll) in
  let size d =
    (if d + 1 < n_docs then bases.(d + 1) else C.n_nodes coll) - bases.(d)
  in
  (* Meta document of each document; the doc-granular builders never
     split a document, so the root's meta is the document's meta. *)
  let meta_of_doc = Array.init n_docs (fun d -> registry.meta_of_node.(bases.(d))) in
  let n_metas = Array.length registry.metas in
  let meta_weight = Array.make n_metas 0 in
  Array.iteri (fun d m -> meta_weight.(m) <- meta_weight.(m) + size d) meta_of_doc;
  (* Longest-processing-time greedy: heaviest meta first, onto the
     currently lightest shard. Never splits a meta document. *)
  let n_shards = min n_shards n_metas in
  let order = Array.init n_metas (fun m -> m) in
  Array.sort (fun a b -> Int.compare meta_weight.(b) meta_weight.(a)) order;
  let shard_load = Array.make n_shards 0 in
  let shard_of_meta = Array.make n_metas 0 in
  Array.iter
    (fun m ->
      let lightest = ref 0 in
      Array.iteri (fun s w -> if w < shard_load.(!lightest) then lightest := s) shard_load;
      shard_of_meta.(m) <- !lightest;
      shard_load.(!lightest) <- shard_load.(!lightest) + meta_weight.(m))
    order;
  let docs =
    Array.init n_docs (fun d ->
        {
          name = C.doc_name coll d;
          global_base = bases.(d);
          n_nodes = size d;
          shard = shard_of_meta.(meta_of_doc.(d));
          local_base = 0 (* filled in by [finish] *);
        })
  in
  let shard_of_node g =
    match find_covering docs ~base:(fun d -> d.global_base) g with
    | Some d -> d.shard
    | None -> assert false
  in
  let tags = C.tag coll in
  let cross =
    C.links coll
    |> List.filter_map (fun (l : C.link) ->
           if shard_of_node l.src = shard_of_node l.dst then None
           else Some { src = l.src; dst = l.dst; dst_tag = C.tag_name coll tags.(l.dst) })
    |> Array.of_list
  in
  finish ~n_shards ~total_nodes:(C.n_nodes coll) ~docs ~cross

let shard_documents t coll =
  if C.n_nodes coll <> t.total_nodes || C.n_docs coll <> Array.length t.docs then
    invalid_arg "Shard_plan.shard_documents: collection does not match the plan";
  let by_name = Hashtbl.create (Array.length t.docs) in
  List.iter
    (fun (d : Fx_xml.Xml_types.document) -> Hashtbl.replace by_name d.name d)
    (C.documents coll);
  Array.map
    (fun shard_docs ->
      Array.to_list shard_docs
      |> List.map (fun info ->
             match Hashtbl.find_opt by_name info.name with
             | Some d -> d
             | None ->
                 invalid_arg
                   (Printf.sprintf
                      "Shard_plan.shard_documents: document %S not in collection"
                      info.name)))
    t.by_shard

let doc_roots t = Array.map (fun d -> d.global_base) t.docs

(* Content digest (FNV-style, 63-bit) over everything the manifest
   records: the portal closure stamps this value as its epoch, so a
   closure built for one plan can never be joined against another. *)
let digest t =
  let h = ref 0x1c9d422584222325 in
  let mix byte = h := (!h lxor byte) * 0x100000001b3 in
  let mix_int v =
    let v = ref v in
    for _ = 0 to 7 do
      mix (!v land 0xff);
      v := !v asr 8
    done
  in
  let mix_string s =
    mix_int (String.length s);
    String.iter (fun c -> mix (Char.code c)) s
  in
  mix_int t.n_shards;
  mix_int t.total_nodes;
  Array.iter
    (fun d ->
      mix_string d.name;
      mix_int d.global_base;
      mix_int d.n_nodes;
      mix_int d.shard)
    t.docs;
  Array.iter
    (fun l ->
      mix_int l.src;
      mix_int l.dst;
      mix_string l.dst_tag)
    t.cross;
  (* 60 bits, not 62: the epoch is persisted through {!Codec.Writer.int},
     whose zig-zag step can only round-trip magnitudes below 2^61 — a
     wider digest would come back from disk with its top bits gone and
     every saved closure would look stale. *)
  !h land ((1 lsl 60) - 1)

(* --- persistence ------------------------------------------------------ *)

(* The plan half of the manifest; {!Portal_closure.save_manifest} owns
   the file framing and the closure half. *)
let write_body w t =
  Codec.Writer.int w t.n_shards;
  Codec.Writer.int w t.total_nodes;
  Codec.Writer.int w (Array.length t.docs);
  Array.iter
    (fun d ->
      Codec.Writer.string w d.name;
      Codec.Writer.int w d.global_base;
      Codec.Writer.int w d.n_nodes;
      Codec.Writer.int w d.shard)
    t.docs;
  Codec.Writer.int w (Array.length t.cross);
  Array.iter
    (fun l ->
      Codec.Writer.int w l.src;
      Codec.Writer.int w l.dst;
      Codec.Writer.string w l.dst_tag)
    t.cross

let corrupt fmt = Printf.ksprintf (fun s -> raise (Codec.Corrupt s)) fmt

let read_body r =
  let n_shards = Codec.Reader.int r in
  let total_nodes = Codec.Reader.int r in
  if n_shards < 1 then corrupt "manifest: %d shards" n_shards;
  if total_nodes < 0 then corrupt "manifest: negative node count";
  let n_docs = Codec.Reader.int r in
  if n_docs < 0 then corrupt "manifest: negative document count";
  let next_base = ref 0 in
  let docs =
    Array.init n_docs (fun _ ->
        let name = Codec.Reader.string r in
        let global_base = Codec.Reader.int r in
        let n_nodes = Codec.Reader.int r in
        let shard = Codec.Reader.int r in
        if global_base <> !next_base then
          corrupt "manifest: document %S at base %d, expected %d" name global_base
            !next_base;
        if n_nodes < 1 then corrupt "manifest: document %S with %d nodes" name n_nodes;
        if shard < 0 || shard >= n_shards then
          corrupt "manifest: document %S on shard %d of %d" name shard n_shards;
        next_base := global_base + n_nodes;
        { name; global_base; n_nodes; shard; local_base = 0 })
  in
  if !next_base <> total_nodes then
    corrupt "manifest: documents cover %d nodes, header says %d" !next_base total_nodes;
  let n_cross = Codec.Reader.int r in
  if n_cross < 0 then corrupt "manifest: negative link count";
  let cross =
    Array.init n_cross (fun _ ->
        let src = Codec.Reader.int r in
        let dst = Codec.Reader.int r in
        let dst_tag = Codec.Reader.string r in
        if src < 0 || src >= total_nodes || dst < 0 || dst >= total_nodes then
          corrupt "manifest: link %d -> %d outside %d nodes" src dst total_nodes;
        { src; dst; dst_tag })
  in
  finish ~n_shards ~total_nodes ~docs ~cross

let describe t =
  Printf.sprintf "shard plan: %d shards over %d documents, %d nodes, %d cross-shard links"
    t.n_shards (Array.length t.docs) t.total_nodes (Array.length t.cross)
  :: List.init t.n_shards (fun s ->
         Printf.sprintf "shard %d: %d documents, %d nodes" s (shard_n_docs t s)
           (shard_n_nodes t s))
