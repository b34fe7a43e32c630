(* The four workloads: what each deploys and the seeded request mix its
   clients send. README.md gives the reason for each choice. *)

module Rng = Fx_util.Rng
module P = Fx_server.Protocol
module C = Fx_xml.Collection

type kind = Mem_read | Disk_read | Coord_read | Mem_ingest

let all = [ Mem_read; Disk_read; Coord_read; Mem_ingest ]

let name = function
  | Mem_read -> "mem-read"
  | Disk_read -> "disk-read"
  | Coord_read -> "coord-read"
  | Mem_ingest -> "mem-ingest"

let of_name s = List.find_opt (fun k -> name k = s) all

(* Documents served. mem-read is the paper's DBLP extract size; the disk
   deployments stop at 1,000 documents because per-candidate label
   decoding, not page misses, dominates beyond that (a doc//author probe
   has a 1.4 s p90 at 2,000). *)
let default_docs = function
  | Mem_read -> 6210
  | Disk_read | Coord_read -> 1000
  | Mem_ingest -> 2000

(* Every workload serves the collection this generator seed gives, as a
   database benchmark serves one dataset; the run's seed picks the
   requests. Generated collections differ too much from seed to seed to
   compare runs across seeds: at 1,000 documents, the disk index's size
   per input byte ranges from 4.7 to 6.7 over seeds 11-15. *)
let collection_seed = 2004

(* The nominal phase; BENCHMARK.json's run_seconds is the same. Four
   workloads at 20 s, each with its set-up, warm-up and verification,
   fit the benchmark's 92 runs into under an hour. *)
let phase_seconds = 20.0

(* A phase sends a fixed number of requests, so two builds measured at
   the same seed do identical work. [client_rate] is the rate at which
   one closed-loop client of the seed code got answers on a 2-core host;
   a phase of [seconds] gives each client that rate times [seconds]
   requests, rounded to whole blocks of the mix. *)
let client_rate = function
  | Mem_read -> 660.0
  | Disk_read -> 45.0
  | Coord_read -> 215.0
  | Mem_ingest -> 5700.0

let block = 80

let per_client kind seconds =
  block * max 1 (int_of_float (Float.round (client_rate kind *. seconds /. float_of_int block)))

(* A phase that runs this long stops; requests not sent by then fail. *)
let guard_seconds = 120.0

(* Generated collections, server logs, on-disk indexes and span files;
   the repository's .gitignore lists it. *)
let work_dir = "bench/e2e/_work"

(* mem-ingest's writer adds and evicts the documents generated after the
   served ones, once a second. The server runs INGEST and EVICT on the
   domain that also reads and answers every connection, so each swap
   (about 100 ms at 2,000 documents) stalls the readers, and a host that
   runs slow stretches the stalls too. At 5 a second the readers'
   throughput varied more than twice as much from run to run as at 1 a
   second (README.md, "Load"). A 20 s phase then gives the 20 operations
   admin_p50_ms needs; a p90 would need 100. *)
let batch_size = 8
let admin_rate_hz = 1.0
let admin_ops seconds = int_of_float (Float.round (admin_rate_hz *. seconds))
let pool_pages = function Disk_read -> 256 | Coord_read -> 4096 | Mem_read | Mem_ingest -> 0
let shard_queue = 1024

(* The end-to-end metrics a workload reports (see Verdict.end_to_end). *)
let metrics kind =
  [
    "throughput_rps"; "latency_p50_ms"; "latency_p90_ms"; "latency_p99_ms"; "error_rate"; "setup_s";
    "server_rss_mb";
  ]
  @ (match kind with
    | Disk_read | Coord_read -> [ "stored_bytes_per_input_byte" ]
    | Mem_read | Mem_ingest -> [])
  @ match kind with Mem_ingest -> [ "admin_p50_ms" ] | _ -> []

type op =
  | Desc of { doc : string; start : int; tag : string; k : int }
  | Conn of { a : int; b : int; max_dist : int }
  | Anc of { node : int; tag : string; k : int }
  | Eval of { start_tag : string; target_tag : string; k : int; max_dist : int option }

let verb = function
  | Desc _ -> "descendants"
  | Conn _ -> "connected"
  | Anc _ -> "ancestors"
  | Eval _ -> "evaluate"

let read_verbs = [ "descendants"; "connected"; "ancestors"; "evaluate" ]

(* The k an item answer may not exceed; CONNECTED answers no items. *)
let k_of = function
  | Desc { k; _ } | Anc { k; _ } | Eval { k; _ } -> k
  | Conn _ -> 0

let request = function
  | Desc { doc; tag; k; _ } ->
      P.Descendants { doc; anchor = None; tag = Some tag; k; max_dist = None }
  | Conn { a; b; max_dist } -> P.Connected { a; b; max_dist = Some max_dist }
  | Anc { node; tag; k } -> P.Ancestors { node; tag = Some tag; k; max_dist = None }
  | Eval { start_tag; target_tag; k; max_dist } ->
      P.Evaluate { start_tag; target_tag; k; max_dist }

(* What the request generator needs to know about the collection. *)
type shape = {
  n_docs : int;
  n_nodes : int;
  doc_names : string array;
  roots : int array;
  ends : int array;  (** exclusive end of each document's node range *)
  cites : int array array;  (** documents each document links to *)
}

let shape coll =
  let total = C.n_docs coll in
  let n_nodes = C.n_nodes coll in
  let roots = Array.init total (C.root_of_doc coll) in
  let ends = Array.init total (fun d -> if d + 1 < total then roots.(d + 1) else n_nodes) in
  let cites = Array.make total [] in
  List.iter
    (fun (l : C.link) ->
      if l.inter then begin
        let s = C.doc_of_node coll l.src in
        cites.(s) <- C.doc_of_node coll l.dst :: cites.(s)
      end)
    (C.links coll);
  {
    n_docs = total;
    n_nodes;
    doc_names = Array.init total (C.doc_name coll);
    roots;
    ends;
    cites = Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) cites;
  }

let node_in s rng d = s.roots.(d) + Rng.int rng (s.ends.(d) - s.roots.(d))
let leaf_tags = [| "author"; "title"; "cite"; "article" |]

let eval_pairs =
  [|
    ("article", "author");
    ("inproceedings", "author");
    ("article", "title");
    ("inproceedings", "title");
    ("article", "cite");
    ("inproceedings", "cite");
  |]

(* coord-read's EVALUATE keys: each finishes cold in under a second at
   1,000 documents (article//title in 0.3-0.45 s, inproceedings//title
   in 0.55-0.85 s), and the warm-up issues each once. The //author and
   //cite pairs take 1-3 s cold and would hit the 2 s deadline. *)
let coord_eval_keys =
  [| ("article", "title", 5); ("article", "title", 10); ("article", "title", 20);
     ("inproceedings", "title", 10) |]

(* mem-ingest's EVALUATE keys: 6 pairs x 4 values of k, drawn Zipf. *)
let ingest_eval_keys =
  Array.concat
    (Array.to_list
       (Array.map (fun (a, b) -> Array.map (fun k -> (a, b, k)) [| 5; 10; 20; 50 |]) eval_pairs))

let ingest_zipf = Fx_workload.Zipf.create ~exponent:1.1 (Array.length ingest_eval_keys)

(* 0 .. n-1 in bit-reversed order (0, n/2, n/4, 3n/4, ... for n a
   power of two): every prefix spreads evenly over the range. *)
let spread_order n =
  let rec width b = if 1 lsl b >= n then b else width (b + 1) in
  let bits = width 0 in
  let rev i =
    let rec go b acc = if b = bits then acc else go (b + 1) ((acc lsl 1) lor ((i lsr b) land 1)) in
    go 0 0
  in
  Array.of_seq (Seq.filter (fun j -> j < n) (Seq.map rev (Seq.init (1 lsl bits) Fun.id)))

(* A request class: [make i d] is its [i]th request, started from
   document [d]. A class sends [n] requests per phase, and their start
   documents sit on a grid of [n] points over the collection, shifted by
   a seeded fraction of a cell and visited in [spread_order]. What a
   request costs depends on where its document sits: later documents
   reach more of the citation graph, and on disk the last few percent
   cost twenty times the median. On the grid, every seed sends the same
   number of requests, give or take one, into any stretch of documents;
   drawn uniformly, that number, and with it the run's throughput, would
   swing from seed to seed. *)
type cls = { make : int -> int -> op; order : int array; shift : float; mutable drawn : int }

let draw s c =
  let n = Array.length c.order in
  let i = c.drawn in
  c.drawn <- i + 1;
  let x = (float_of_int c.order.(i mod n) +. c.shift) /. float_of_int n in
  c.make i (min (s.n_docs - 1) (int_of_float (x *. float_of_int s.n_docs)))

(* coord-read's CONNECTED targets: one node in each of the 16 most cited
   documents, which many start documents reach, and one in each of the
   last 16, which only the documents after them can reach (citations
   only point backwards). The
   pool is the same for every run seed. The coordinator caches the
   distance from every entry portal of the target's shard to the target,
   at most 1,126 entries per target at 1,000 documents, and empties the
   whole cache at 65,536 entries, which turns answers in flight wrong
   (README.md, "Gaps"). 32 targets keep it below that. *)
let coord_targets s =
  let rng = Rng.create collection_seed in
  let cited = Array.make s.n_docs 0 in
  Array.iter (Array.iter (fun d -> cited.(d) <- cited.(d) + 1)) s.cites;
  let docs = Array.init s.n_docs Fun.id in
  Array.stable_sort (fun a b -> Int.compare cited.(b) cited.(a)) docs;
  let pick docs = Array.map (node_in s rng) docs in
  (pick (Array.sub docs 0 16), pick (Array.init 16 (fun i -> s.n_docs - 1 - i)))

(* Each workload's mix as (slots per block of [block] requests, class),
   for a stream of [blocks] blocks. *)
let classes kind s rng ~blocks =
  let c slots make = (slots, { make; order = spread_order (slots * blocks); shift = Rng.float rng; drawn = 0 }) in
  let desc n ~tag ~k = c n (fun _ d -> Desc { doc = s.doc_names.(d); start = s.roots.(d); tag; k }) in
  let leaf n = List.map (fun tag -> desc n ~tag ~k:10) (Array.to_list leaf_tags) in
  let k100 n = [ desc n ~tag:"article" ~k:100 ] in
  let conn_to n ~near ~far =
    let conn target = c (n / 2) (fun _ d -> Conn { a = s.roots.(d); b = target d; max_dist = 32 }) in
    [ conn near; conn far ]
  in
  (* Half the pairs are reachable (a node of a document the start
     document cites, or of the start document itself), half are not (a
     node of a later document). *)
  let conn n =
    conn_to n
      ~near:(fun d -> node_in s rng (if s.cites.(d) = [||] then d else Rng.pick rng s.cites.(d)))
      ~far:(fun d ->
        let d = min d (s.n_docs - 2) in
        node_in s rng (d + 1 + Rng.int rng (s.n_docs - d - 1)))
  in
  let coord_conn n =
    let cited, last = coord_targets s in
    conn_to n ~near:(fun _ -> Rng.pick rng cited) ~far:(fun _ -> Rng.pick rng last)
  in
  let anc n = [ c n (fun _ d -> Anc { node = node_in s rng d; tag = "article"; k = 10 }) ] in
  let eval n key =
    [
      c n (fun i _ ->
          let start_tag, target_tag, k = key i in
          Eval { start_tag; target_tag; k; max_dist = None });
    ]
  in
  let cycle keys i = keys.(i mod Array.length keys) in
  match kind with
  | Mem_read ->
      leaf 10 @ k100 12 @ conn 16 @ eval 12 (cycle (Array.map (fun (a, b) -> (a, b, 20)) eval_pairs))
  | Disk_read -> leaf 9 @ k100 12 @ conn 20 @ anc 12
  (* No ANCESTORS: each adds about 250 probe-cache entries, and past
     65,536 the coordinator answers wrongly (README.md, "Gaps"). *)
  | Coord_read -> leaf 9 @ k100 12 @ coord_conn 28 @ eval 4 (cycle coord_eval_keys)
  | Mem_ingest ->
      leaf 12 @ eval 32 (fun _ -> ingest_eval_keys.(Fx_workload.Zipf.sample ingest_zipf rng))

(* One client's request stream of [n] requests, a multiple of [block]:
   blocks in the workload's exact mix, each block shuffled. *)
let stream kind s rng ~n =
  let blocks = n / block in
  let slots =
    Array.of_list (List.concat_map (fun (k, c) -> List.init k (fun _ -> c)) (classes kind s rng ~blocks))
  in
  assert (Array.length slots = block && n mod block = 0);
  let next = ref 0 in
  fun () ->
    if !next = 0 then Rng.shuffle rng slots;
    let c = slots.(!next) in
    next := (!next + 1) mod block;
    draw s c

(* The request as sent. [unique] numbers the send among all of the
   phase's sends: mem-read gives every EVALUATE its own max_dist above
   the node count, which never prunes the search but makes every answer
   cache key distinct. *)
let fresh kind s op ~unique =
  match (kind, op) with
  | Mem_read, Eval e -> Eval { e with max_dist = Some (s.n_nodes + 1 + unique) }
  | _ -> op

(* Seeded streams: client [c] of the timed phase, and separately of the
   warm-up, so warming never shifts the timed sequence. *)
let client_rng ~seed ~warmup c = Rng.create ((seed * 7919) + (c * 104_729) + if warmup then 15_485_863 else 0)
