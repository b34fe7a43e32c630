(* Shared test utilities: QCheck generators for graphs and collections,
   ground-truth oracles, and Alcotest glue. *)

module Digraph = Fx_graph.Digraph
module Traversal = Fx_graph.Traversal

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* --- random graphs ------------------------------------------------- *)

(* A random digraph as (n, edge list); n in [1, max_n]. *)
let digraph_gen ?(max_n = 24) ?(edge_factor = 2.0) () =
  let open QCheck.Gen in
  int_range 1 max_n >>= fun n ->
  let max_edges = int_of_float (edge_factor *. float_of_int n) in
  int_range 0 max_edges >>= fun m ->
  list_repeat m (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) >>= fun edges ->
  return (n, edges)

let digraph_arb ?max_n ?edge_factor () =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    (digraph_gen ?max_n ?edge_factor ())

(* A random forest as (n, parent edges): node i>0 optionally gets a
   parent among 0..i-1. *)
let forest_gen ?(max_n = 30) () =
  let open QCheck.Gen in
  int_range 1 max_n >>= fun n ->
  let parent_for i = if i = 0 then return None else opt (int_range 0 (i - 1)) in
  let rec build i acc =
    if i >= n then return (List.rev acc)
    else parent_for i >>= fun p -> build (i + 1) ((i, p) :: acc)
  in
  build 0 [] >>= fun parents ->
  let edges = List.filter_map (fun (i, p) -> Option.map (fun p -> (p, i)) p) parents in
  return (n, edges)

let forest_arb ?max_n () =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=[%s]" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges)))
    (forest_gen ?max_n ())

(* Random tags for n nodes over a small alphabet. *)
let tags_of_graph seed n =
  let rng = Fx_util.Rng.create seed in
  Array.init n (fun _ -> Fx_util.Rng.int rng 4)

let data_graph_of (n, edges) ~tag_seed =
  let g = Digraph.of_edges ~n edges in
  { Fx_index.Path_index.graph = g; tag = tags_of_graph tag_seed n }

(* --- oracles -------------------------------------------------------- *)

let oracle_reachable g u v = Traversal.reachable g u v
let oracle_distance g u v = Traversal.distance g u v

let oracle_descendants_by_tag (dg : Fx_index.Path_index.data_graph) u want =
  Traversal.descendants_by_tag dg.graph ~tag:dg.tag u want

(* Compare result lists modulo the tie order at equal distance. *)
let same_results a b =
  let norm l = List.sort compare l in
  norm a = norm b
  && List.map snd (List.sort compare a) = List.map snd (List.sort compare b)

let sorted_by_distance l = Fx_flix.Stats.is_sorted_by_dist l

(* All (u, v) pairs of a small graph. *)
let all_pairs n =
  List.concat (List.init n (fun u -> List.init n (fun v -> (u, v))))

(* --- tiny fixed graphs ---------------------------------------------- *)

(*     0          5
      / \         |
     1   2        6 <-> 7   (cycle)
        / \
       3   4  , plus a link 4 -> 5 *)
let small_graph () =
  Digraph.of_edges ~n:8
    [ (0, 1); (0, 2); (2, 3); (2, 4); (4, 5); (5, 6); (6, 7); (7, 6) ]

let small_forest () = Digraph.of_edges ~n:6 [ (0, 1); (0, 2); (2, 3); (2, 4) ]

let sorted_by_dist_list dists =
  let rec go = function
    | d1 :: (d2 :: _ as rest) -> d1 <= d2 && go rest
    | [ _ ] | [] -> true
  in
  go dists

(* --- shard fixtures ------------------------------------------------- *)

(* One HOPI per shard sub-collection, and the portal closure a plan's
   coordinator joins against, built from those indexes the way
   --build-shards builds it. *)
let hopis_of colls =
  Array.map
    (fun sub ->
      Fx_index.Hopi.build
        { Fx_index.Path_index.graph = Fx_xml.Collection.graph sub;
          tag = Fx_xml.Collection.tag sub })
    colls

let closure_of plan hopis =
  Fx_shard.Portal_closure.build ~plan ~local_dist:(fun ~shard ~a ~b ->
      Fx_index.Hopi.distance hopis.(shard) a b)

(* --- server metrics ------------------------------------------------ *)

(* The value of an unlabelled series in a METRICS payload. *)
let metric_value lines name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' (String.trim l) with
      | [ n; v ] when n = name -> int_of_string_opt v
      | _ -> None)
    lines

(* --- label-store surgery ------------------------------------------- *)

(* Make a saved Disk_labels store read like another one by appending
   records behind its last one, with plain writes in the heap's framing
   (a 4-byte big-endian length, then the payload), zero-padding the last
   page, and pointing the header's root at the last record appended:
   open reads that record as the trailer ("fxend": the directory
   handle, then the store layout), and the directory ("fxdir": the node
   count, then the in-label, out-label, down-run, up-run and tag-record
   handle arrays). *)
module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file
module Codec = Fx_util.Codec

let with_label_pager path f =
  let pager = Pager.open_ path in
  Fun.protect ~finally:(fun () -> Pager.close pager) (fun () -> f pager)

let write_at fd pos b =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  ignore (Unix.write fd b 0 (Bytes.length b))

(* [f pager add] reads the store through [pager] and appends records
   with [add], which returns each one's handle. *)
let append_records path f =
  with_label_pager path (fun pager ->
      let page_size = Pager.page_size pager in
      let root = ref (Option.get (Heap.last_handle pager)) in
      let cursor = ref (!root + 4 + String.length (Heap.read pager !root)) in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let add s =
            let b = Bytes.create (4 + String.length s) in
            Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
            Bytes.blit_string s 0 b 4 (String.length s);
            write_at fd (page_size + !cursor) b;
            root := !cursor;
            cursor := !cursor + Bytes.length b;
            !root
          in
          f pager add;
          let tail = !cursor mod page_size in
          if tail > 0 then write_at fd (page_size + !cursor) (Bytes.make (page_size - tail) '\000');
          write_at fd 0 (Pager.header ~page_size ~root:(Some !root))))

let directory_handle pager =
  Codec.Reader.int
    (Codec.Reader.create ~magic:"fxend" (Heap.read pager (Option.get (Heap.last_handle pager))))

let append_trailer add ~dir layout =
  let w = Codec.Writer.create ~magic:"fxend" in
  Codec.Writer.int w dir;
  Option.iter (Codec.Writer.int w) layout;
  ignore (add (Codec.Writer.contents w))

(* Stamp an earlier layout's trailer on the store: [None] writes the
   label-only layout's (no layout field), [Some 1] the layout before
   tag records. *)
let stamp_store_layout path layout =
  append_records path (fun pager add -> append_trailer add ~dir:(directory_handle pager) layout)

(* Point tag id [tag] at a new tag record holding [bytes]. *)
let replace_tag_record path ~tag bytes =
  append_records path (fun pager add ->
      let r = Codec.Reader.create ~magic:"fxdir" (Heap.read pager (directory_handle pager)) in
      let n = Codec.Reader.int r in
      let arrays = List.init 5 (fun _ -> Codec.Reader.int_array r) in
      (List.nth arrays 4).(tag) <- add bytes;
      let w = Codec.Writer.create ~magic:"fxdir" in
      Codec.Writer.int w n;
      List.iter (Codec.Writer.int_array w) arrays;
      append_trailer add ~dir:(add (Codec.Writer.contents w)) (Some 2))

(* Rewrite the header the way every store written before header roots
   had it: without a root. *)
let drop_header_root path =
  let page_size = with_label_pager path Pager.page_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> write_at fd 0 (Pager.header ~page_size ~root:None))
