(* The disk cost ledger: what one request of each disk request class
   costs a disk-resident HOPI deployment, counted rather than timed.

     disk_ledger.exe               print the ledger of this tree
     disk_ledger.exe --check FILE  compare this tree against FILE

   A seeded DBLP-shaped collection is indexed and saved with
   [Disk_hopi.save] into a temporary directory, then reopened; every
   class runs a fixed list of requests against it, each pulling at most
   [k] answers as the disk server does. Items answered must match the
   ledger exactly: a different count is a different answer. Pager
   logical reads are exact too: the check fails when they rise, with no
   tolerance, and prints the new figure when they fall. Minor words per
   request depend on the compiler as well as the code, so they may rise
   by up to [words_tolerance] before the check fails. *)

module C = Fx_xml.Collection
module Idx = Fx_index
module Pager = Fx_store.Pager
module Rng = Fx_util.Rng

let n_docs = 1000
let collection_seed = 2004
let per_class = 40
let words_tolerance = 0.10

type row = { cls : string; requests : int; items : int; reads : int; words : float }

(* Start documents on a grid over the collection, so every class sees
   early (cheap) and late (citation-rich) documents alike. *)
let grid i = i * n_docs / per_class + (n_docs / (2 * per_class))

let rec take k (next : Idx.Disk_hopi.stream) =
  if k = 0 then 0 else match next () with None -> 0 | Some _ -> 1 + take (k - 1) next

let classes coll =
  let rng = Rng.create collection_seed in
  let tag name = C.tag_id coll name in
  let root d = C.root_of_doc coll d in
  let node_in d =
    let lo = root d in
    let hi = if d + 1 < C.n_docs coll then root (d + 1) else C.n_nodes coll in
    lo + Rng.int rng (hi - lo)
  in
  (* As the server asks: descendants strictly below the start. *)
  let desc ?max_dist name k d =
    let want = Option.bind name tag and start = root d in
    fun disk -> take k (Idx.Disk_hopi.descendants disk ?max_dist ~strict:true start want)
  in
  let anc d =
    let want = tag "article" and start = node_in d in
    fun disk -> take 10 (Idx.Disk_hopi.ancestors disk start want)
  in
  (* EVALUATE as the disk server runs it: every start-tag node's labels,
     then one merge toward the target tag. *)
  let eval a b _ disk =
    let starts = Option.fold ~none:[] ~some:(Idx.Disk_hopi.nodes_by_tag disk) (tag a) in
    match Idx.Disk_hopi.descendants_of_starts disk starts (tag b) with
    | Some next -> take 20 next
    | None -> 0
  in
  List.map
    (fun t -> ("descendants/" ^ t ^ "/10", desc (Some t) 10))
    [ "author"; "title"; "cite"; "article" ]
  @ [
      ("descendants/article/100", desc (Some "article") 100);
      ("descendants/*/100", desc None 100);
      ("descendants/article/100/max4", desc ~max_dist:4 (Some "article") 100);
      ("ancestors/article/10", anc);
    ]
  @ List.map
      (fun (a, b) -> (Printf.sprintf "evaluate/%s/%s/20" a b, eval a b))
      [ ("article", "author"); ("inproceedings", "title"); ("article", "cite") ]

let with_deployment coll f =
  let dir = Filename.temp_dir "fx_disk_ledger" "" in
  let path = Filename.concat dir "index" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let dg = { Idx.Path_index.graph = C.graph coll; tag = C.tag coll } in
      Idx.Disk_hopi.save ~path dg (Idx.Hopi.build dg);
      let disk = Idx.Disk_hopi.open_ ~path () in
      Fun.protect ~finally:(fun () -> Idx.Disk_hopi.close disk) (fun () -> f disk))

let measure () =
  let coll =
    Fx_workload.Dblp_gen.collection
      { Fx_workload.Dblp_gen.default with n_docs; seed = collection_seed }
  in
  with_deployment coll (fun disk ->
      let reads () = (Idx.Disk_hopi.stats disk).Pager.logical_reads in
      List.map
        (fun (cls, run) ->
          (* Each request's arguments are drawn before the count starts. *)
          let requests = Array.init per_class (fun i -> run (grid i)) in
          let items = ref 0 in
          let reads_before = reads () and before = Gc.minor_words () in
          Array.iter (fun request -> items := !items + request disk) requests;
          let words = (Gc.minor_words () -. before) /. float_of_int per_class in
          { cls; requests = per_class; items = !items; reads = reads () - reads_before; words })
        (classes coll))

let header =
  [
    "# Disk cost ledger: per disk request class, on a dblp_gen deployment of";
    Printf.sprintf "# %d documents (generator seed %d) saved by Disk_hopi.save, %d requests" n_docs
      collection_seed per_class;
    "# per class. items and reads (pager logical reads) are totals over the";
    "# class; words is minor words allocated per request. Regenerate with";
    "# disk_ledger.exe.";
    "# class                            requests     items     reads      words";
  ]

let render r = Printf.sprintf "%-34s %8d %9d %9d %10.1f" r.cls r.requests r.items r.reads r.words

let parse line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | [ cls; requests; items; reads; words ] ->
      {
        cls;
        requests = int_of_string requests;
        items = int_of_string items;
        reads = int_of_string reads;
        words = float_of_string words;
      }
  | _ -> failwith ("disk_ledger: malformed line: " ^ line)

let check file =
  let recorded =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
    |> List.map parse
  in
  let now = measure () in
  let failures = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> incr failures; print_endline ("FAIL " ^ s)) fmt in
  let note fmt = Printf.ksprintf (fun s -> print_endline ("fell " ^ s)) fmt in
  List.iter
    (fun r ->
      match List.find_opt (fun (o : row) -> o.cls = r.cls) recorded with
      | None -> fail "%s: not in %s" r.cls file
      | Some o ->
          if r.requests <> o.requests then fail "%s: %d requests, ledger has %d" r.cls r.requests o.requests
          else begin
            if r.items <> o.items then fail "%s: items %d -> %d" r.cls o.items r.items;
            if r.reads > o.reads then fail "%s: reads rose %d -> %d" r.cls o.reads r.reads
            else if r.reads < o.reads then note "%s: reads %d -> %d" r.cls o.reads r.reads;
            if r.words > o.words *. (1. +. words_tolerance) then
              fail "%s: minor words per request rose %.1f -> %.1f (tolerance %.0f%%)" r.cls o.words
                r.words (100. *. words_tolerance)
            else if r.words < o.words *. (1. -. words_tolerance) then
              note "%s: minor words per request %.1f -> %.1f" r.cls o.words r.words
          end)
    now;
  List.iter
    (fun (o : row) ->
      if not (List.exists (fun r -> r.cls = o.cls) now) then fail "%s: class no longer measured" o.cls)
    recorded;
  if !failures > 0 then exit 1

let () =
  match Sys.argv with
  | [| _ |] -> List.iter print_endline (header @ List.map render (measure ()))
  | [| _; "--check"; file |] -> check file
  | _ ->
      prerr_endline "usage: disk_ledger.exe [--check LEDGER]";
      exit 2
