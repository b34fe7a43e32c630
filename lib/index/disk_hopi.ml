module PQ = Fx_graph.Priority_queue
module Int_tbl = Hashtbl.Make (Int)

type t = Disk_labels.t

let labels_path path = path ^ ".labels"

let save ?page_size ~path (dg : Path_index.data_graph) hopi =
  Disk_labels.save ?page_size ~tags:dg.tag ~path:(labels_path path) (Hopi.labels hopi)

let open_ ?pool_pages ~path () = Disk_labels.open_ ?pool_pages (labels_path path)

let n_nodes = Disk_labels.n_nodes
let n_tags = Disk_labels.n_tags
let distance = Disk_labels.distance
let reachable = Disk_labels.reachable

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
    let front = if PQ.is_empty heap then limit else PQ.min_prio heap lsr node_bits in
    if !opened < Array.length sources && sources.(!opened).d1 <= front then begin
      let src = sources.(!opened) in
      incr opened;
      List.iter
        (fun cursor -> push { cursor; src })
        (Disk_labels.open_runs t dir ~hop:src.hop want);
      next ()
    end
    else if PQ.is_empty heap then None
    else begin
      let key = PQ.min_prio heap in
      push (PQ.pop heap);
      let y = key land node_mask in
      if Int_tbl.mem seen y then next ()
      else begin
        Int_tbl.add seen y ();
        Some (y, key lsr node_bits)
      end
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
  let label = Disk_labels.hops t Disk_labels.Down x in
  merge t Disk_labels.Down ?max_dist want (sources ~strict [ (x, label) ])

let ancestors t ?max_dist x want =
  let label = Disk_labels.hops t Disk_labels.Up x in
  merge t Disk_labels.Up ?max_dist want (sources ~strict:false [ (x, label) ])

let descendants_of_starts t ?max_dist ?(expired = fun () -> false) starts want =
  let rec gather acc = function
    | [] -> Some acc
    | _ :: _ when expired () -> None
    | s :: rest -> gather ((s, Disk_labels.hops t Disk_labels.Down s) :: acc) rest
  in
  Option.map
    (fun labels -> merge t Disk_labels.Down ?max_dist want (sources ~strict:true labels))
    (gather [] starts)

let drain (next : stream) =
  let rec go acc = match next () with None -> List.rev acc | Some p -> go (p :: acc) in
  go []

let descendants_by_tag t x want = drain (descendants t x want)
let ancestors_by_tag t x want = drain (ancestors t x want)

let nodes_by_tag = Disk_labels.nodes_by_tag
let stats = Disk_labels.stats
let stripe_stats = Disk_labels.stripe_stats
let drop_pool = Disk_labels.drop_pool
let close = Disk_labels.close
