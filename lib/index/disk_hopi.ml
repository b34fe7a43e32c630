module Run_merge = Fx_graph.Run_merge

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

(* One label entry (hop, d1) of a start: its run's entries reach their
   node at [d1 + d2], and [skip] (the start, or -1) is never emitted. *)
type source = { hop : int; d1 : int; skip : int }

type live = { cursor : Disk_labels.cursor; src : source }

(* The distance merge (DESIGN.md) over the hop runs of every tag query.
   By the 2-hop cover property every (y, d1 + d2) is a real path and the
   shortest one is among them. A run is cut past [max_dist], and a
   source's run is opened only once the merge front reaches its d1, so
   a top-k answer reads the runs of the nearest hops and no others. *)
let merge t dir ?max_dist want sources : stream =
  let limit = Option.value max_dist ~default:max_int in
  let bits = Run_merge.bits (Disk_labels.n_nodes t) in
  Array.stable_sort (fun a b -> Int.compare a.d1 b.d1) sources;
  let opened = ref 0 in
  let rec step l =
    if not (Disk_labels.advance l.cursor) then -1
    else begin
      let y = Disk_labels.cursor_node l.cursor in
      let d = l.src.d1 + Disk_labels.cursor_dist l.cursor in
      if y = l.src.skip then step l else if d <= limit then Run_merge.pack ~bits d y else -1
    end
  in
  let rec open_reached m =
    if !opened < Array.length sources && sources.(!opened).d1 <= Int.min limit (Run_merge.front m)
    then begin
      let src = sources.(!opened) in
      incr opened;
      List.iter
        (fun cursor -> Run_merge.add m { cursor; src })
        (Disk_labels.open_runs t dir ~hop:src.hop want);
      open_reached m
    end
  in
  let m = Run_merge.create ~bits ~before_pop:open_reached ~emit:(fun _ y d -> (y, d)) step in
  fun () -> Run_merge.next m

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
