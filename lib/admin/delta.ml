module Collection = Fx_xml.Collection

type scope = All | Tags of string list

(* Node ids are assigned document-by-document in order, so after
   [Flix.extend] every pre-existing node keeps its id and the new
   documents' nodes occupy [old_n_nodes ..). A link crossing that
   boundary — a new document referencing an old one, or an old
   document's previously-dangling href resolving against a new document
   name — changes answers rooted in old nodes, so the delta cannot be
   scoped to the new tags. Idrefs resolve within a single document and
   can never start crossing. *)
let extend_scope ~old_n_nodes c =
  let crossing =
    List.exists
      (fun (l : Collection.link) ->
        not (Bool.equal (l.src < old_n_nodes) (l.dst < old_n_nodes)))
      (Collection.links c)
  in
  if crossing then All
  else begin
    let tag = Collection.tag c in
    let seen = Hashtbl.create 16 in
    for v = old_n_nodes to Collection.n_nodes c - 1 do
      Hashtbl.replace seen tag.(v) ()
    done;
    let names = Hashtbl.fold (fun id () acc -> Collection.tag_name c id :: acc) seen [] in
    Tags (List.sort_uniq String.compare names)
  end
