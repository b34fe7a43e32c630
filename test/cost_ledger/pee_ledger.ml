(* The PEE cost ledger: what one request of each memory request class
   costs the path expression evaluator, counted rather than timed.

     pee_ledger.exe               print the ledger of this tree
     pee_ledger.exe --check FILE  compare this tree against FILE

   Every class runs a fixed list of requests against a fresh [Pee.t]
   each, as the memory server does, on a seeded DBLP-shaped collection.
   The integer counters (heap insertions, entry drops, items answered)
   are exact: the check fails when one rises, with no tolerance, and
   prints the new figure when one falls. Minor words per request depend
   on the compiler as well as the code, so they may rise by up to
   [words_tolerance] before the check fails. *)

module C = Fx_xml.Collection
module RS = Fx_flix.Result_stream
module Pee = Fx_flix.Pee
module Rng = Fx_util.Rng

let n_docs = 1000
let collection_seed = 2004
let per_class = 40
let words_tolerance = 0.10

type row = { cls : string; requests : int; inserts : int; drops : int; items : int; words : float }

(* Start documents on a grid over the collection, so every class sees
   early (cheap) and late (citation-rich) documents alike. *)
let grid i = i * n_docs / per_class + (n_docs / (2 * per_class))

let classes coll =
  let rng = Rng.create collection_seed in
  let tag name = Option.value ~default:(-1) (C.tag_id coll name) in
  let root d = C.root_of_doc coll d in
  let node_in d =
    let lo = root d in
    let hi = if d + 1 < C.n_docs coll then root (d + 1) else C.n_nodes coll in
    lo + Rng.int rng (hi - lo)
  in
  let cites = Array.make (C.n_docs coll) [] in
  List.iter
    (fun (l : C.link) ->
      if l.inter then
        let s = C.doc_of_node coll l.src in
        cites.(s) <- C.doc_of_node coll l.dst :: cites.(s))
    (C.links coll);
  let cites = Array.map Array.of_list cites in
  let count k s = List.length (RS.take k s) in
  let desc ?max_dist name k d =
    let tag = tag name and start = root d in
    fun pee -> count k (Pee.descendants ~tag ?max_dist pee ~start)
  in
  let conn target d =
    let a = root d and b = target d in
    fun pee -> match Pee.connected ~max_dist:32 pee a b with Some _ -> 1 | None -> 0
  in
  let near d = node_in (if cites.(d) = [||] then d else Rng.pick rng cites.(d)) in
  let far d =
    let d = min d (n_docs - 2) in
    node_in (d + 1 + Rng.int rng (n_docs - d - 1))
  in
  let eval a b _ =
    let starts, lo, hi = C.tag_slice coll a and tag = tag b in
    fun pee -> count 20 (Pee.descendants_multi_slice ~tag pee ~starts ~lo ~hi)
  in
  let anc d =
    let tag = tag "article" and start = node_in d in
    fun pee -> count 10 (Pee.ancestors ~tag ~include_self:true pee ~start)
  in
  List.map (fun t -> ("descendants/" ^ t ^ "/10", desc t 10)) [ "author"; "title"; "cite"; "article" ]
  @ [
      ("descendants/article/100", desc "article" 100);
      ("descendants/article/100/max4", desc ~max_dist:4 "article" 100);
      ("connected/near", conn near);
      ("connected/far", conn far);
      ("ancestors/article/10", anc);
    ]
  @ List.map
      (fun (a, b) -> (Printf.sprintf "evaluate/%s/%s/20" a b, eval a b))
      [
        ("article", "author");
        ("inproceedings", "author");
        ("article", "title");
        ("inproceedings", "title");
        ("article", "cite");
        ("inproceedings", "cite");
      ]

let measure () =
  let coll =
    Fx_workload.Dblp_gen.collection
      { Fx_workload.Dblp_gen.paper_scale with n_docs; seed = collection_seed }
  in
  let flix = Fx_flix.Flix.build coll in
  List.map
    (fun (cls, run) ->
      (* Each request's arguments are drawn before the count starts. *)
      let requests = Array.init per_class (fun i -> run (grid i)) in
      let inserts = ref 0 and drops = ref 0 and items = ref 0 in
      let before = Gc.minor_words () in
      for i = 0 to per_class - 1 do
        let pee = Pee.create (Fx_flix.Flix.built flix) in
        items := !items + requests.(i) pee;
        let ins, dr = Pee.queue_stats pee in
        inserts := !inserts + ins;
        drops := !drops + dr
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int per_class in
      { cls; requests = per_class; inserts = !inserts; drops = !drops; items = !items; words })
    (classes coll)

let header =
  [
    "# PEE cost ledger: per memory request class, on the paper-scale dblp_gen";
    Printf.sprintf "# shape at %d documents (generator seed %d), %d requests per class." n_docs
      collection_seed per_class;
    "# inserts, drops and items are totals over the class; words is minor";
    "# words allocated per request. Regenerate with pee_ledger.exe.";
    "# class                            requests   inserts     drops     items      words";
  ]

let render r =
  Printf.sprintf "%-34s %8d %9d %9d %9d %10.1f" r.cls r.requests r.inserts r.drops r.items r.words

let parse line =
  match String.split_on_char ' ' line |> List.filter (( <> ) "") with
  | [ cls; requests; inserts; drops; items; words ] ->
      {
        cls;
        requests = int_of_string requests;
        inserts = int_of_string inserts;
        drops = int_of_string drops;
        items = int_of_string items;
        words = float_of_string words;
      }
  | _ -> failwith ("pee_ledger: malformed line: " ^ line)

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
            List.iter
              (fun (name, now, was) ->
                if now > was then fail "%s: %s rose %d -> %d" r.cls name was now
                else if now < was then note "%s: %s %d -> %d" r.cls name was now)
              [ ("inserts", r.inserts, o.inserts); ("drops", r.drops, o.drops); ("items", r.items, o.items) ];
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
      prerr_endline "usage: pee_ledger.exe [--check LEDGER]";
      exit 2
