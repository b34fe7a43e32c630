module Pager = Fx_store.Pager
module Btree = Fx_store.Btree
module PQ = Fx_graph.Priority_queue
module Int_tbl = Hashtbl.Make (Int)

type t = {
  labels : Disk_labels.t;
  tag_pager : Pager.t;
  tags : Btree.t;
  n : int;
}

let shift = 32
let tag_key ~tag ~node = (tag lsl shift) lor node

let labels_path path = path ^ ".labels"
let tags_path path = path ^ ".tags"

let save ?page_size ~path (dg : Path_index.data_graph) hopi =
  Disk_labels.save ?page_size ~tags:dg.tag ~path:(labels_path path) (Hopi.labels hopi);
  let tp = tags_path path in
  if Sys.file_exists tp then Sys.remove tp;
  (* Grouped by tag, ascending within: the keys come out sorted. *)
  let entries =
    Path_index.nodes_by_tag dg
    |> Array.mapi (fun tag nodes -> Array.map (fun node -> (tag_key ~tag ~node, node)) nodes)
    |> Array.to_list |> Array.concat
  in
  let pager = Pager.create ?page_size tp in
  ignore (Btree.bulk_load pager entries);
  Pager.close pager

let open_ ?pool_pages ?page_size ?stripes ~path () =
  let lp = labels_path path in
  let labels = Disk_labels.open_ ?pool_pages ?page_size ?stripes lp in
  if not (Disk_labels.has_runs labels) then begin
    Disk_labels.close labels;
    raise
      (Fx_util.Codec.Corrupt
         (Printf.sprintf
            "%s has no inverted hop runs (an older store layout); rebuild the \
             deployment into a fresh --index-dir"
            lp))
  end;
  let tag_pager = Pager.create ?pool_pages ?page_size ?stripes (tags_path path) in
  let tags = Btree.create tag_pager in
  { labels; tag_pager; tags; n = Disk_labels.n_nodes labels }

let n_nodes t = t.n
let distance t x y = Disk_labels.distance t.labels x y
let reachable t x y = distance t x y <> None

(* --- the hop-run merge ------------------------------------------------- *)

type stream = unit -> (int * int) option

(* Heap keys pack (d, y) so that integer order is Path_index.sort_results
   order; node ids and distances stay below 2^31. *)
let node_bits = 31
let node_mask = (1 lsl node_bits) - 1

(* One label entry (hop, d1) of a start: its run's entries reach their
   node at [d1 + d2], and [skip] (the start, or -1) is never emitted. *)
type source = { hop : int; d1 : int; skip : int }

type live = { cursor : Disk_labels.cursor; src : source }

(* The distance-ordered k-way merge behind every tag query. By the
   2-hop cover property every (y, d1 + d2) is a real path and the
   shortest one is among them, so popping by (d, y) yields each node
   first at its exact distance, in sort_results order; later pops of it
   are dropped. A source's run is opened only once the merge front
   reaches its d1, so a top-k answer reads the runs of the nearest hops
   and no others. *)
let merge t dir ?max_dist want sources : stream =
  let limit = Option.value max_dist ~default:max_int in
  Array.stable_sort (fun a b -> Int.compare a.d1 b.d1) sources;
  let opened = ref 0 in
  let heap = PQ.create () in
  let seen = Int_tbl.create 16 in
  let rec push l =
    if Disk_labels.advance l.cursor then begin
      let y = Disk_labels.cursor_node l.cursor in
      let d = l.src.d1 + Disk_labels.cursor_dist l.cursor in
      if y = l.src.skip then push l
      else if d <= limit then PQ.insert heap ((d lsl node_bits) lor y) l
    end
  in
  let rec next () =
    let front =
      match PQ.peek_min heap with Some (key, _) -> key lsr node_bits | None -> limit
    in
    if !opened < Array.length sources && sources.(!opened).d1 <= front then begin
      let src = sources.(!opened) in
      incr opened;
      List.iter
        (fun cursor -> push { cursor; src })
        (Disk_labels.open_runs t.labels dir ~hop:src.hop want);
      next ()
    end
    else
      match PQ.extract_min heap with
      | None -> None
      | Some (key, l) ->
          push l;
          let y = key land node_mask in
          if Int_tbl.mem seen y then next ()
          else begin
            Int_tbl.add seen y ();
            Some (y, key lsr node_bits)
          end
  in
  next

(* One source per label entry of every start, each skipping its own
   start when [strict]. *)
let sources ~strict starts =
  Array.concat
    (List.map
       (fun (s, label) ->
         Array.map (fun (hop, d1) -> { hop; d1; skip = (if strict then s else -1) }) label)
       starts)

let descendants t ?max_dist ?(strict = false) x want =
  let label = Disk_labels.hops t.labels Disk_labels.Down x in
  merge t Disk_labels.Down ?max_dist want (sources ~strict [ (x, label) ])

let ancestors t ?max_dist x want =
  let label = Disk_labels.hops t.labels Disk_labels.Up x in
  merge t Disk_labels.Up ?max_dist want (sources ~strict:false [ (x, label) ])

let descendants_of_starts t ?max_dist ?(expired = fun () -> false) starts want =
  let rec gather acc = function
    | [] -> Some acc
    | _ :: _ when expired () -> None
    | s :: rest -> gather ((s, Disk_labels.hops t.labels Disk_labels.Down s) :: acc) rest
  in
  Option.map
    (fun labels -> merge t Disk_labels.Down ?max_dist want (sources ~strict:true labels))
    (gather [] starts)

let drain (next : stream) =
  let rec go acc = match next () with None -> List.rev acc | Some p -> go (p :: acc) in
  go []

let descendants_by_tag t x want = drain (descendants t x want)
let ancestors_by_tag t x want = drain (ancestors t x want)

let nodes_by_tag t tag =
  if tag < 0 then []
  else begin
    let acc = ref [] in
    Btree.iter_range t.tags ~lo:(tag_key ~tag ~node:0)
      ~hi:(tag_key ~tag ~node:((1 lsl shift) - 1))
      (fun _ node -> acc := node :: !acc);
    List.rev !acc
  end

let restricted_descendants t x set =
  let acc = ref [] in
  Fx_graph.Bitset.iter set (fun v ->
      match distance t x v with Some d -> acc := (v, d) :: !acc | None -> ());
  Path_index.sort_results !acc

let restricted_ancestors t x set =
  let acc = ref [] in
  Fx_graph.Bitset.iter set (fun v ->
      match distance t v x with Some d -> acc := (v, d) :: !acc | None -> ());
  Path_index.sort_results !acc

(* A disk deployment as a pluggable Path Indexing Strategy: FliX's
   Index Builder can host meta documents whose indexes never load into
   memory, composing them with in-memory ones through the same PEE. *)
let instance ?pool_pages ?page_size ~path dg hopi =
  let (), build_ns = Fx_util.Stopwatch.time_ns (fun () -> save ?page_size ~path dg hopi) in
  let t = open_ ?pool_pages ?page_size ~path () in
  let size_bytes =
    let file p = try (Unix.stat p).Unix.st_size with Unix.Unix_error _ -> 0 in
    file (labels_path path) + file (tags_path path)
  in
  {
    Path_index.name = "HOPI-disk";
    n_nodes = t.n;
    reachable = reachable t;
    distance = distance t;
    descendants_by_tag = descendants_by_tag t;
    ancestors_by_tag = ancestors_by_tag t;
    restricted_descendants = restricted_descendants t;
    restricted_ancestors = restricted_ancestors t;
    stats =
      { strategy = "HOPI-disk"; build_ns; entries = Two_hop.entries (Hopi.labels hopi);
        size_bytes };
  }

let stats t = (Disk_labels.stats t.labels, Pager.stats t.tag_pager)

let stripe_stats t = (Disk_labels.stripe_stats t.labels, Pager.stripe_stats t.tag_pager)

let drop_pools t =
  Disk_labels.drop_pool t.labels;
  Pager.drop_pool t.tag_pager

let close t =
  Disk_labels.close t.labels;
  Pager.close t.tag_pager
