(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section 6), plus the ablations from DESIGN.md.

     dune exec bench/main.exe              # everything (E1-E5, A1-A2)
     dune exec bench/main.exe -- table1    # one experiment
     dune exec bench/main.exe -- figure5 --docs 2000
     dune exec bench/main.exe -- micro     # bechamel micro-suite

   Experiments (ids from DESIGN.md):
     E1 table1   index sizes [MB] for the six strategies
     E2 figure5  time to k-th result of the hub a//article query
     E3 errors   fraction of results returned out of order
     E4 connect  connection-test latency
     E5 multi    figure5 repeated over random start elements / tags
     A1 hybrid   hybrid config vs its parts on a Figure-1-style web mix
     A2 psweep   Unconnected-HOPI partition-size sweep
     A6 inex     Naive config on an INEX-style isolated-document collection
     D1 disk     disk-resident HOPI labels behind a buffer pool, cold vs warm
     A3 exact    approximate vs exactly-ordered evaluation
     A4 cache    query-result cache on a skewed workload
     A5 ordering HOPI landmark-order ablation
        serve    query-service throughput / latency at worker counts 1/2/4
        micro    bechamel per-operation latencies

   Absolute times are in-memory OCaml, ~1000x below the paper's
   database-backed numbers; EXPERIMENTS.md compares shapes. *)

module C = Fx_xml.Collection
module Pi = Fx_index.Path_index
module MB = Fx_flix.Meta_builder
module SS = Fx_flix.Strategy_selector
module Pee = Fx_flix.Pee
module RS = Fx_flix.Result_stream
module Stats = Fx_flix.Stats
module Flix = Fx_flix.Flix
module Dblp = Fx_workload.Dblp_gen
module Web = Fx_workload.Web_gen
module Qg = Fx_workload.Query_gen
module Traversal = Fx_graph.Traversal

let now () = Unix.gettimeofday ()

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let header title =
  Printf.printf "\n=== %s ===\n%!" title


(* ------------------------------------------------------------------ *)
(* Contenders: the six indexing strategies of Section 6, each exposing
   a lazily-pulled result stream for the hub query so that time-to-k-th
   result is measured honestly. *)

type contender = {
  name : string;
  size_bytes : int;
  build_s : float;
  (* a//tag evaluation returning a fresh pull-based stream *)
  query : start:int -> tag:int option -> (int * int) RS.t;
  (* reachability probe, used by the connection-test bench *)
  probe : int -> int -> int option;
  (* true when the probe answers the pair from FliX's document-level
     reachability filter without searching; false for the global
     indexes, which have no such filter *)
  filtered : int -> int -> bool;
  runtime_links : int;
}

let stream_of_list results =
  let rest = ref results in
  RS.of_fn (fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
          rest := tl;
          Some x)

let stream_of_seq seq =
  let state = ref seq in
  RS.of_fn (fun () ->
      match !state () with
      | Seq.Nil -> None
      | Seq.Cons (x, rest) ->
          state := rest;
          Some x)

(* Global HOPI applied to the complete collection: all results of the
   block arrive at once (the label probe is one batch operation), which
   reproduces the paper's flat HOPI curve in Figure 5. *)
let hopi_global c =
  let dg = { Pi.graph = C.graph c; tag = C.tag c } in
  let t, build_s = timed (fun () -> Fx_index.Hopi.build dg) in
  ( t,
    {
    name = "HOPI";
    size_bytes = Fx_index.Hopi.size_bytes t;
    build_s;
    query =
      (fun ~start ~tag ->
        (* The batch evaluation must run inside the first pull, not at
           stream construction, or time-to-first-result would be 0. *)
        let block =
          lazy
            (stream_of_list
               (List.filter
                  (fun (v, d) -> not (v = start && d = 0))
                  (Fx_index.Hopi.descendants_by_tag t start tag)))
        in
        RS.of_fn (fun () -> RS.next (Lazy.force block)));
    probe = Fx_index.Hopi.distance t;
    filtered = (fun _ _ -> false);
    runtime_links = 0;
  } )

let apex_global c =
  let dg = { Pi.graph = C.graph c; tag = C.tag c } in
  let t, build_s = timed (fun () -> Fx_index.Apex.build dg) in
  {
    name = "APEX";
    size_bytes = Fx_index.Apex.size_bytes t;
    build_s;
    query =
      (fun ~start ~tag ->
        RS.filter
          (fun (v, d) -> not (v = start && d = 0))
          (stream_of_seq (Fx_index.Apex.descendants_stream t start tag)));
    probe = Fx_index.Apex.distance t;
    filtered = (fun _ _ -> false);
    runtime_links = 0;
  }

let flix_contender name config ?policy c =
  let f, build_s = timed (fun () -> Flix.build ~config ?policy c) in
  let pee = Flix.pee f in
  {
    name;
    size_bytes = Flix.index_size_bytes f;
    build_s;
    query =
      (fun ~start ~tag ->
        RS.map
          (fun (it : Pee.item) -> (it.node, it.dist))
          (Pee.descendants ?tag pee ~start));
    probe = (fun a b -> Pee.connected pee a b);
    filtered =
      (fun a b ->
        a <> b
        && not (Fx_graph.Reach_filter.may_reach (Flix.registry f).Fx_flix.Meta_document.reach a b));
    runtime_links = Fx_flix.Meta_document.total_out_links (Flix.registry f);
  }

(* The paper's line-up: HOPI and APEX on the complete collection,
   PPO-naive, two Unconnected-HOPI variants and Maximal PPO as FliX
   configurations. *)
let contenders c =
  let force_hopi = SS.Force (SS.HOPI { partition_size = 5000 }) in
  let hopi_t, hopi_contender = hopi_global c in
  ( hopi_t,
  [
    hopi_contender;
    apex_global c;
    flix_contender "PPO-naive" MB.Naive c;
    flix_contender "HOPI-5000" (MB.Unconnected_hopi { max_size = 5_000 }) ~policy:force_hopi c;
    flix_contender "HOPI-20000" (MB.Unconnected_hopi { max_size = 20_000 }) ~policy:force_hopi c;
    flix_contender "MaximalPPO" MB.Maximal_ppo c;
  ] )

(* ------------------------------------------------------------------ *)
(* Shared experiment context, built once per run. *)

type ctx = {
  collection : C.t;
  hub : Qg.query;
  article_tag : int option;
  all : contender list;
  hopi_labels : Fx_index.Hopi.t;
}

let make_ctx ~docs ~seed =
  Printf.printf "workload: synthetic DBLP, %d documents (seed %d)\n%!" docs seed;
  let c, gen_s = timed (fun () -> Dblp.collection { Dblp.paper_scale with n_docs = docs; seed }) in
  Printf.printf "collection: %s (generated in %.2f s)\n%!" (C.stats c) gen_s;
  let hub = Qg.hub_query c ~tag:"article" in
  Printf.printf "hub query: %s, %d true results\n%!" hub.label hub.n_reachable;
  Printf.printf "building the six indexes...\n%!";
  let hopi_labels, all = contenders c in
  List.iter (fun k -> Printf.printf "  %-11s built in %6.2f s\n%!" k.name k.build_s) all;
  { collection = c; hub; article_tag = C.tag_id c "article"; all; hopi_labels }

(* ------------------------------------------------------------------ *)
(* E1: Table 1 — index sizes. *)

let table1 ctx =
  header "E1 / Table 1: index sizes";
  Printf.printf "%-12s %10s %10s %10s\n" "index" "size [MB]" "build [s]" "links@qry";
  List.iter
    (fun k ->
      Printf.printf "%-12s %10.2f %10.2f %10d\n" k.name (Stats.mb k.size_bytes) k.build_s
        k.runtime_links)
    ctx.all;
  let est =
    Fx_graph.Tc_estimate.closure_pairs
      (Fx_graph.Tc_estimate.compute ~rounds:16 ~seed:17 (C.graph ctx.collection))
  in
  Printf.printf "%-12s %10.2f %21s\n" "TC (est.)" (Stats.mb (int_of_float (8.0 *. est)))
    "(Cohen estimator)";
  print_newline ();
  print_endline "paper (27 MB DBLP extract, Oracle-backed): HOPI huge but >10x below TC;";
  print_endline "HOPI-5000 ~ 2x APEX; PPO-naive and MaximalPPO smallest, roughly equal."

(* ------------------------------------------------------------------ *)
(* E2: Figure 5 — time to the k-th result of hub//article. *)

let ks = [ 1; 2; 5; 10; 20; 50; 100 ]

let figure5_row ctx (k : contender) =
  let stream = k.query ~start:ctx.hub.start ~tag:ctx.article_tag in
  let trace = RS.take_timed 100 stream in
  (k.name, Stats.time_series trace ~ks, List.length trace)

let figure5 ctx =
  header "E2 / Figure 5: time [ms] to return the first k results of hub//article";
  Printf.printf "%-12s" "index";
  List.iter (fun k -> Printf.printf " %8s" ("k=" ^ string_of_int k)) ks;
  Printf.printf " %8s\n" "#res";
  List.iter
    (fun k ->
      let name, series, total = figure5_row ctx k in
      Printf.printf "%-12s" name;
      List.iter
        (fun want ->
          match List.assoc_opt want series with
          | Some ms -> Printf.printf " %8.3f" ms
          | None -> Printf.printf " %8s" "-")
        ks;
      Printf.printf " %8d\n%!" total)
    ctx.all;
  print_newline ();
  print_endline "paper: HOPI flat (~0.6 s); HOPI-5000/20000 beat HOPI for the first";
  print_endline "results; MaximalPPO fastest to the very first results but degrades;";
  print_endline "PPO-naive constantly slower; APEX in between."

(* ------------------------------------------------------------------ *)
(* E3: result-order error rates. *)

let error_rates ctx =
  header "E3: fraction of results returned out of order (hub//article)";
  let truth = Traversal.bfs_distances (C.graph ctx.collection) ctx.hub.start in
  Printf.printf "%-12s %12s %14s\n" "index" "inversions" "strict/result";
  List.iter
    (fun k ->
      let stream = k.query ~start:ctx.hub.start ~tag:ctx.article_tag in
      let nodes = List.map fst (RS.to_list stream) in
      let td v = truth.(v) in
      Printf.printf "%-12s %11.1f%% %13.1f%%\n" k.name
        (100.0 *. Stats.inversion_rate ~true_dist:td nodes)
        (100.0 *. Stats.error_rate ~true_dist:td nodes))
    ctx.all;
  print_newline ();
  print_endline "paper: 8.2% (HOPI-5000), 10.4% (HOPI-20000), 13.3% (MaximalPPO);";
  print_endline "exact strategies (HOPI, APEX, and PPO inside one document) at 0%."

(* ------------------------------------------------------------------ *)
(* E4: connection tests. *)

let connect ctx =
  header "E4: connection tests (100 random pairs, half of them connected)";
  let pairs =
    Qg.connection_pairs ctx.collection ~seed:23 ~count:100 ~connected_fraction:0.5
  in
  let n_unreachable = List.length (List.filter (fun (_, _, truth) -> truth = None) pairs) in
  let p95 = function [] -> 0.0 | xs -> Stats.percentile 95.0 xs in
  Printf.printf "%-12s %11s %11s %11s %11s %9s %7s\n" "index" "reach mean" "reach p95"
    "unrch mean" "unrch p95" "filtered" "agree";
  List.iter
    (fun k ->
      let reach = ref [] and unreach = ref [] and agree = ref 0 and filtered = ref 0 in
      List.iter
        (fun (a, b, truth) ->
          let r, s = timed (fun () -> k.probe a b) in
          let ms = 1000.0 *. s in
          if truth = None then unreach := ms :: !unreach else reach := ms :: !reach;
          if k.filtered a b then incr filtered;
          if (r <> None) = (truth <> None) then incr agree)
        pairs;
      Printf.printf "%-12s %11.4f %11.4f %11.4f %11.4f %5d/%-3d %6d%%\n%!" k.name
        (Stats.mean !reach) (p95 !reach) (Stats.mean !unreach) (p95 !unreach) !filtered
        n_unreachable !agree)
    ctx.all;
  print_newline ();
  print_endline "times in ms; \"filtered\": unreachable pairs the FliX rows answer from the";
  print_endline "document-level reachability filter without searching. The paper's connection";
  print_endline "test has no such filter: compare its numbers with the reachable columns.";
  print_endline "paper: same relative trend as Figure 5, lower absolute numbers."

(* ------------------------------------------------------------------ *)
(* E5: Figure 5 over random start elements and tag names. *)

let multi ctx =
  header "E5: robustness — five random a//b queries (time [ms] to k=10 / k=100)";
  let queries =
    Qg.descendant_queries ctx.collection ~seed:31 ~count:5 ~min_results:100
  in
  if queries = [] then print_endline "collection too small to sample queries; skipped"
  else begin
    Printf.printf "%-12s" "index";
    List.iteri (fun i _ -> Printf.printf "      q%d-10     q%d-100" (i + 1) (i + 1)) queries;
    print_newline ();
    List.iter
      (fun (k : contender) ->
        Printf.printf "%-12s" k.name;
        List.iter
          (fun (q : Qg.query) ->
            let stream = k.query ~start:q.start ~tag:(C.tag_id ctx.collection q.tag) in
            let trace = RS.take_timed 100 stream in
            let at n =
              match List.assoc_opt n (Stats.time_series trace ~ks:[ n ]) with
              | Some ms -> Printf.sprintf "%10.3f" ms
              | None -> Printf.sprintf "%10s" "-"
            in
            Printf.printf " %s %s" (at 10) (at 100))
          queries;
        print_newline ())
      ctx.all;
    print_newline ();
    print_endline
      "paper: \"other experiments with different start elements and different\n\
       tag names showed similar results\" — the ordering of strategies should\n\
       match Figure 5 on most queries."
  end

(* ------------------------------------------------------------------ *)
(* A1: hybrid configuration on the heterogeneous web collection. *)

let hybrid () =
  header "A1 (ablation): FliX configurations on a Figure-1-style web collection";
  let p =
    { Web.default with n_tree_docs = 300; n_dense_docs = 120; dense_doc_size = 80; seed = 3 }
  in
  let c = Web.collection p in
  Printf.printf "collection: %s\n%!" (C.stats c);
  let queries = Qg.descendant_queries c ~seed:7 ~count:8 ~min_results:20 in
  Printf.printf "%d sampled queries with >= 20 results each\n" (List.length queries);
  let configs =
    [
      ("Naive", MB.Naive);
      ("MaximalPPO", MB.Maximal_ppo);
      ("Unc-HOPI", MB.Unconnected_hopi { max_size = 2000 });
      ("Hybrid", MB.Hybrid { max_size = 2000; min_tree_size = 50 });
      ("Element", MB.Element_level { max_size = 2000 });
    ]
  in
  Printf.printf "%-12s %10s %10s %12s %12s %12s\n" "config" "size [MB]" "links@qry" "t-first[ms]"
    "t-20th [ms]" "err rate";
  List.iter
    (fun (name, config) ->
      let k = flix_contender name config c in
      let firsts = ref [] and t20 = ref [] and errs = ref [] in
      List.iter
        (fun (q : Qg.query) ->
          let truth = Traversal.bfs_distances (C.graph c) q.start in
          let stream = k.query ~start:q.start ~tag:(C.tag_id c q.tag) in
          let trace = RS.take_timed 20 stream in
          (match trace with (_, ms) :: _ -> firsts := ms :: !firsts | [] -> ());
          (match List.rev trace with
          | (_, ms) :: _ when List.length trace = 20 -> t20 := ms :: !t20
          | _ -> ());
          errs :=
            Stats.inversion_rate ~true_dist:(fun v -> truth.(v))
              (List.map fst (List.map fst trace))
            :: !errs)
        queries;
      Printf.printf "%-12s %10.2f %10d %12.4f %12.4f %11.1f%%\n%!" name
        (Stats.mb k.size_bytes) k.runtime_links (Stats.mean !firsts) (Stats.mean !t20)
        (100.0 *. Stats.mean !errs))
    configs;
  print_newline ();
  print_endline "expectation: Hybrid matches MaximalPPO on the tree cluster and";
  print_endline "Unconnected-HOPI on the dense cluster — best of both at modest size."

(* ------------------------------------------------------------------ *)
(* A2: partition-size sweep for Unconnected HOPI. *)

let psweep ctx =
  header "A2 (ablation): Unconnected-HOPI partition-size sweep";
  let truth = Traversal.bfs_distances (C.graph ctx.collection) ctx.hub.start in
  Printf.printf "%-10s %10s %10s %12s %12s %10s\n" "max_size" "size [MB]" "build [s]"
    "t-10 [ms]" "t-100 [ms]" "err rate";
  List.iter
    (fun max_size ->
      let k =
        flix_contender
          (Printf.sprintf "HOPI-%d" max_size)
          (MB.Unconnected_hopi { max_size })
          ~policy:(SS.Force (SS.HOPI { partition_size = 5000 }))
          ctx.collection
      in
      let stream = k.query ~start:ctx.hub.start ~tag:ctx.article_tag in
      let trace = RS.take_timed 100 stream in
      let at n =
        match List.assoc_opt n (Stats.time_series trace ~ks:[ n ]) with
        | Some ms -> ms
        | None -> nan
      in
      let full_nodes =
        List.map fst (RS.to_list (k.query ~start:ctx.hub.start ~tag:ctx.article_tag))
      in
      let err = Stats.inversion_rate ~true_dist:(fun v -> truth.(v)) full_nodes in
      Printf.printf "%-10d %10.2f %10.2f %12.4f %12.4f %9.1f%%\n%!" max_size
        (Stats.mb k.size_bytes) k.build_s (at 10) (at 100) (100.0 *. err))
    [ 1_000; 2_000; 5_000; 10_000; 20_000; 50_000 ];
  print_newline ();
  print_endline "expectation: larger partitions -> bigger labels, fewer run-time";
  print_endline "links, lower error rate; the paper's 5000/20000 sit mid-sweep."

(* ------------------------------------------------------------------ *)
(* A6: the Naive configuration on its home turf — an INEX-style
   collection of large, isolated documents (paper, Section 4.3). *)

let inex () =
  header "A6 (ablation): configurations on an INEX-style collection";
  let c =
    Fx_workload.Inex_gen.collection { Fx_workload.Inex_gen.default with n_docs = 150 }
  in
  Printf.printf "collection: %s\n%!" (C.stats c);
  (* INEX queries live inside one document: all paragraph descendants of
     random section elements. *)
  let sections = C.find_by_tag c "sec" in
  let rng = Fx_util.Rng.create 13 in
  let starts =
    List.init 40 (fun _ -> List.nth sections (Fx_util.Rng.int rng (List.length sections)))
  in
  let tag = C.tag_id c "p" in
  Printf.printf "%-14s %10s %10s %12s\n" "config" "size [MB]" "links@qry" "mean q [ms]";
  List.iter
    (fun (name, config) ->
      let k = flix_contender name config c in
      let times =
        List.map
          (fun start ->
            let _, s = timed (fun () -> RS.to_list (k.query ~start ~tag)) in
            1000.0 *. s)
          starts
      in
      Printf.printf "%-14s %10.2f %10d %12.4f\n%!" name (Stats.mb k.size_bytes)
        k.runtime_links (Stats.mean times))
    [
      ("Naive", MB.Naive);
      ("Spanning-PPO", MB.Spanning_ppo);
      ("Unc-HOPI", MB.Unconnected_hopi { max_size = 2000 });
      ("Hybrid", MB.Hybrid { max_size = 2000; min_tree_size = 50 });
    ];
  print_newline ();
  print_endline "paper: \"the INEX benchmark collection ... would be a good candidate";
  print_endline "for using this [naive] configuration\" — documents are large, links";
  print_endline "rare, queries stay inside one document."

(* ------------------------------------------------------------------ *)
(* A3: exact vs approximate result ordering (the paper's future-work
   refinement, Section 7). *)

let exact_ablation ctx =
  header "A3 (ablation): approximate vs exact result ordering (hub//article)";
  let flix =
    Flix.build ~config:(MB.Unconnected_hopi { max_size = 5_000 })
      ~policy:(SS.Force (SS.HOPI { partition_size = 5000 }))
      ctx.collection
  in
  let pee = Flix.pee flix in
  let truth = Traversal.bfs_distances (C.graph ctx.collection) ctx.hub.start in
  Printf.printf "%-14s %10s %12s %12s %10s %12s\n" "engine" "err rate" "t-10 [ms]"
    "t-100 [ms]" "#results" "queue ops";
  List.iter
    (fun (name, make_stream) ->
      let ins0, _ = Pee.queue_stats pee in
      let trace = RS.take_timed 100 (make_stream ()) in
      let at n =
        match List.assoc_opt n (Stats.time_series trace ~ks:[ n ]) with
        | Some ms -> ms
        | None -> nan
      in
      let all = RS.to_list (make_stream ()) in
      let ins1, _ = Pee.queue_stats pee in
      let err =
        Stats.inversion_rate
          ~true_dist:(fun v -> truth.(v))
          (List.map (fun (it : Pee.item) -> it.node) all)
      in
      Printf.printf "%-14s %9.1f%% %12.4f %12.4f %10d %12d\n%!" name (100.0 *. err)
        (at 10) (at 100) (List.length all) ((ins1 - ins0) / 2))
    [
      ("approximate", fun () -> Pee.descendants ?tag:ctx.article_tag pee ~start:ctx.hub.start);
      ("exact", fun () -> Pee.descendants_exact ?tag:ctx.article_tag pee ~start:ctx.hub.start);
    ];
  print_newline ();
  print_endline "expectation: the exact engine trades extra queue traffic (weaker";
  print_endline "entry-point pruning, gated emission) for a 0% error rate."

(* ------------------------------------------------------------------ *)
(* A4: result caching (the paper's future-work item). *)

let cache_ablation ctx =
  header "A4 (ablation): query-result cache on a skewed workload";
  let flix =
    Flix.build ~config:(MB.Unconnected_hopi { max_size = 5_000 }) ctx.collection
  in
  let pee = Flix.pee flix in
  let cache = Fx_flix.Query_cache.create ~capacity:64 pee in
  (* 200 queries over 30 distinct hot starts, Zipf-skewed like a real
     query log. *)
  let starts =
    Fx_workload.Query_gen.descendant_queries ctx.collection ~seed:51 ~count:30 ~min_results:5
    |> List.map (fun (q : Fx_workload.Query_gen.query) -> q.start)
    |> Array.of_list
  in
  if Array.length starts = 0 then print_endline "no queries sampled; skipped"
  else begin
    let zipf = Fx_workload.Zipf.create (Array.length starts) in
    let rng = Fx_util.Rng.create 9 in
    let cold = ref [] and warm = ref [] in
    for _ = 1 to 200 do
      let start = starts.(Fx_workload.Zipf.sample zipf rng) in
      let hit =
        (Fx_flix.Query_cache.stats cache).hits
      in
      let (_ : Pee.item list), dt =
        let t0 = now () in
        let r = RS.to_list (Fx_flix.Query_cache.descendants cache ?tag:ctx.article_tag ~start) in
        (r, 1000.0 *. (now () -. t0))
      in
      if (Fx_flix.Query_cache.stats cache).hits > hit then warm := dt :: !warm
      else cold := dt :: !cold
    done;
    let s = Fx_flix.Query_cache.stats cache in
    Printf.printf "hit rate %.0f%% over 200 queries (%d entries)\n" (100.0 *. s.hit_rate)
      s.entries;
    Printf.printf "mean latency: cold %.4f ms (%d), warm %.4f ms (%d) -> %.0fx speed-up\n"
      (Stats.mean !cold) (List.length !cold) (Stats.mean !warm) (List.length !warm)
      (Stats.mean !cold /. Stats.mean !warm)
  end

(* ------------------------------------------------------------------ *)
(* A5: landmark-ordering ablation for the 2-hop construction. *)

let ordering_ablation ctx =
  header "A5 (ablation): HOPI landmark ordering (coverage vs borders-first)";
  let dg = { Pi.graph = C.graph ctx.collection; tag = C.tag ctx.collection } in
  Printf.printf "%-16s %10s %12s %12s\n" "ordering" "build [s]" "entries" "size [MB]";
  List.iter
    (fun (name, ordering) ->
      let t, s = timed (fun () -> Fx_index.Hopi.build ~ordering dg) in
      Printf.printf "%-16s %10.2f %12d %12.2f\n%!" name s (Fx_index.Hopi.entries t)
        (Stats.mb (Fx_index.Hopi.size_bytes t)))
    [ ("coverage", `Coverage); ("borders-first", `Borders_first) ];
  print_newline ();
  print_endline "both orderings yield exact indexes; coverage (Cohen-estimated";
  print_endline "|anc|x|desc|) is the default because it compresses better in memory."

(* ------------------------------------------------------------------ *)
(* D1: the database-backed deployment — HOPI labels in a page file
   behind a buffer pool, probed cold and warm. This is the regime the
   paper measured (Oracle tables, no application-level caching). *)

let disk ctx =
  header "D1: disk-resident HOPI labels, cold vs warm buffer pool";
  let prefix = Filename.temp_file "flix_hopi" "" in
  let path = prefix ^ ".labels" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ prefix; path ])
    (fun () ->
      let dg = { Pi.graph = C.graph ctx.collection; tag = C.tag ctx.collection } in
      let (), save_s =
        timed (fun () -> Fx_index.Disk_hopi.save ~path:prefix dg ctx.hopi_labels)
      in
      let file_mb = float_of_int (Unix.stat path).Unix.st_size /. 1048576.0 in
      Printf.printf
        "store (labels, hop runs, tag directory): %.2f MB on disk, written in %.2f s\n" file_mb
        save_s;
      let pairs =
        Qg.connection_pairs ctx.collection ~seed:77 ~count:500 ~connected_fraction:0.5
      in
      Printf.printf "%-12s %12s %12s %14s\n" "pool" "mean us" "p95 us" "page misses";
      List.iter
        (fun (label, pool_pages, warmup) ->
          Gc.compact ();
          let disk = Fx_index.Disk_labels.open_ ~pool_pages path in
          if warmup then
            List.iter (fun (a, b, _) -> ignore (Fx_index.Disk_labels.distance disk a b)) pairs;
          Fx_index.Disk_labels.reset_stats disk;
          let times =
            List.map
              (fun (a, b, truth) ->
                let r, s = timed (fun () -> Fx_index.Disk_labels.distance disk a b) in
                assert ((r <> None) = (truth <> None));
                1e6 *. s)
              pairs
          in
          let misses = (Fx_index.Disk_labels.stats disk).Fx_store.Pager.physical_reads in
          Printf.printf "%-12s %12.2f %12.2f %14d\n%!" label (Stats.mean times)
            (Stats.percentile 95.0 times) misses;
          Fx_index.Disk_labels.close disk)
        [
          ("cold-tiny", 8, false);
          ("cold-256", 256, false);
          ("warm-256", 256, true);
          ("warm-4096", 4096, true);
        ];
      print_newline ();
      print_endline "expectation: page misses vanish as the pool grows; per-probe time is";
      print_endline "dominated by label decoding once resident (large collections), by page";
      print_endline "fetches when the pool thrashes (the paper's regime).";
      (* The hub descendants query end to end from the same store. *)
      Printf.printf "\n%-12s %14s %16s\n" "pool" "hub query ms" "page misses";
      List.iter
        (fun (label, pool_pages, warm) ->
          Gc.compact ();
          let d = Fx_index.Disk_hopi.open_ ~pool_pages ~path:prefix () in
          Fx_index.Disk_hopi.drop_pool d;
          if warm then
            ignore (Fx_index.Disk_hopi.descendants_by_tag d ctx.hub.start ctx.article_tag);
          let s0 = Fx_index.Disk_hopi.stats d in
          let results, s =
            timed (fun () -> Fx_index.Disk_hopi.descendants_by_tag d ctx.hub.start ctx.article_tag)
          in
          let misses =
            (Fx_index.Disk_hopi.stats d).Fx_store.Pager.physical_reads
            - s0.Fx_store.Pager.physical_reads
          in
          Printf.printf "%-12s %14.2f %16d   (%d results)\n%!" label (1000.0 *. s) misses
            (List.length results);
          Fx_index.Disk_hopi.close d)
        [ ("cold-256", 256, false); ("warm-16k", 16_384, true) ];
      print_newline ();
      print_endline "the hub query is one L_out fetch plus a merge over its hops' article";
      print_endline "runs; the cold run pays a page fetch per run window it opens.")

(* ------------------------------------------------------------------ *)
(* serve: the query service under concurrent client load — throughput
   and latency percentiles per worker count and backend (in-memory
   FliX vs the persistent disk deployment), plus a JSON line for
   machine consumption alongside the human-readable table. *)

let serve ctx =
  header "serve: query-service throughput and latency (8 client threads)";
  (* Worker scaling is the whole point of this bench; on a single-core
     box every worker count runs the same serialized schedule and the
     rows say nothing about scaling. Say so loudly, and stamp the core
     count into the JSON so downstream comparisons can filter. *)
  let cores = Domain.recommended_domain_count () in
  if cores = 1 then begin
    Printf.printf
      "\n\
       *** WARNING: only 1 CPU core available — worker counts cannot run in\n\
       *** parallel, so the scaling rows below are meaningless. Re-run on a\n\
       *** multi-core machine before comparing worker counts.\n\n\
       %!"
  end;
  let flix = Flix.build ~config:(MB.Unconnected_hopi { max_size = 5_000 }) ctx.collection in
  let n_docs = C.n_docs ctx.collection in
  let n_threads = 8 and per_thread = 200 in
  (* [extra ~port] runs after the measured load but before shutdown —
     coordinator rows use it to fire a cache-exercising query mix and
     snapshot probe/cache counters into extra JSON fields. *)
  let run_one ~backend_name ~workers ?extra backend =
    let server =
      Fx_server.Server.start_backend
        ~config:{ Fx_server.Server.default_config with workers; queue_capacity = 256 }
        backend
    in
    let port = Fx_server.Server.port server in
    let lats = Array.make (n_threads * per_thread) 0.0 in
    let wall = Fx_util.Stopwatch.start () in
    let threads =
      List.init n_threads (fun tid ->
          Thread.create
            (fun () ->
              let client = Fx_server.Server_client.connect ~port () in
              let rng = Fx_util.Rng.create (100 + tid) in
              for i = 0 to per_thread - 1 do
                let doc = Fx_workload.Dblp_gen.doc_name (Fx_util.Rng.int rng n_docs) in
                let sw = Fx_util.Stopwatch.start () in
                (match
                   Fx_server.Server_client.descendants client ~doc ~tag:"author" ~k:10 ()
                 with
                | Ok _ -> ()
                | Error e -> Printf.eprintf "bench client error: %s\n%!" e);
                lats.((tid * per_thread) + i) <- Fx_util.Stopwatch.elapsed_ms sw
              done;
              Fx_server.Server_client.close client)
            ())
    in
    List.iter Thread.join threads;
    let wall_s = Fx_util.Stopwatch.elapsed_ms wall /. 1000.0 in
    let extra_fields = match extra with None -> [] | Some f -> f ~port in
    Fx_server.Server.stop server;
    let all = Array.to_list lats in
    let total = n_threads * per_thread in
    let rps = float_of_int total /. wall_s in
    let p q = Stats.percentile q all in
    Printf.printf "%-8s %-8d %10d %10.0f %10.4f %10.4f %10.4f\n%!" backend_name workers
      total rps (p 50.0) (p 95.0) (p 99.0);
    Printf.sprintf
      "{\"backend\":%S,\"workers\":%d,\"requests\":%d,\"rps\":%.1f,\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f%s}"
      backend_name workers total rps (p 50.0) (p 95.0) (p 99.0)
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf ",\"%s\":%s" k v) extra_fields))
  in
  Printf.printf "%-8s %-8s %10s %10s %10s %10s %10s\n" "backend" "workers" "requests"
    "req/s" "p50 [ms]" "p95 [ms]" "p99 [ms]";
  let memory_rows =
    List.map
      (fun w -> run_one ~backend_name:"memory" ~workers:w (Fx_server.Server.memory flix))
      [ 1; 2; 4 ]
  in
  (* Disk rows: persist a global-HOPI deployment once and share the
     handle across worker counts — the thread-safe pager is exactly what
     lets all the worker domains hit one buffer pool. *)
  let prefix = Filename.temp_file "flix_serve" "" in
  let disk_rows =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun p -> try Sys.remove p with Sys_error _ -> ())
          [ prefix; prefix ^ ".labels"; prefix ^ ".catalog" ])
      (fun () ->
        let dg = { Pi.graph = C.graph ctx.collection; tag = C.tag ctx.collection } in
        Fx_index.Disk_hopi.save ~path:prefix dg ctx.hopi_labels;
        Fx_index.Catalog.save ~path:(prefix ^ ".catalog")
          (Fx_index.Catalog.of_collection ctx.collection);
        let d = Fx_index.Disk_hopi.open_ ~pool_pages:16_384 ~path:prefix () in
        let catalog = Fx_index.Catalog.load (prefix ^ ".catalog") in
        (* Per-row stripe evidence: how many gate/io acquisitions had to
           block (cumulative over the shared handle — the per-row delta
           is visible across consecutive rows). *)
        let stripe_extra ~port:_ =
          let ls = Fx_index.Disk_hopi.stripe_stats d in
          let sum f = List.fold_left (fun a st -> a + f st) 0 ls in
          [
            ("stripes", string_of_int (List.length ls));
            ( "lock_acquisitions",
              string_of_int (sum (fun (st : Fx_store.Pager.stripe_stats) -> st.lock_acquisitions)) );
            ( "lock_contended",
              string_of_int (sum (fun (st : Fx_store.Pager.stripe_stats) -> st.lock_contended)) );
          ]
        in
        Fun.protect
          ~finally:(fun () -> Fx_index.Disk_hopi.close d)
          (fun () ->
            List.map
              (fun w ->
                run_one ~backend_name:"disk" ~workers:w ~extra:stripe_extra
                  (Fx_server.Server.disk ~hopi:d ~catalog))
              [ 1; 2; 4 ]))
  in
  (* Sharded rows: the same load through a scatter-gather coordinator
     over disk-backed shard servers. coord1 isolates the coordinator's
     fan-out overhead (one shard, no cross-shard links); coord2 adds
     the 2-shard split with live portal chasing, its portal distances
     joined from the in-memory closure. *)
  let shard_rows =
    let module SP = Fx_shard.Shard_plan in
    let module PC = Fx_shard.Portal_closure in
    let module Coord = Fx_shard.Coordinator in
    List.map
      (fun n_shards ->
        let plan = SP.plan ~n_shards ctx.collection in
        let deployments =
          SP.shard_documents plan ctx.collection
          |> Array.map (fun doc_list ->
                 let sub = C.build doc_list in
                 let dg = { Pi.graph = C.graph sub; tag = C.tag sub } in
                 let hopi = Fx_index.Hopi.build dg in
                 let prefix = Filename.temp_file "flix_shard" "" in
                 Fx_index.Disk_hopi.save ~path:prefix dg hopi;
                 Fx_index.Catalog.save ~path:(prefix ^ ".catalog")
                   (Fx_index.Catalog.of_collection sub);
                 let d = Fx_index.Disk_hopi.open_ ~pool_pages:16_384 ~path:prefix () in
                 (prefix, d, Fx_index.Catalog.load (prefix ^ ".catalog"), hopi))
        in
        let closure =
          let hopis = Array.map (fun (_, _, _, hopi) -> hopi) deployments in
          PC.build ~plan
            ~local_dist:(fun ~shard ~a ~b -> Fx_index.Hopi.distance hopis.(shard) a b)
        in
        Printf.printf "  %d-shard %s\n%!" n_shards (PC.describe closure);
        Fun.protect
          ~finally:(fun () ->
            Array.iter
              (fun (prefix, d, _, _) ->
                Fx_index.Disk_hopi.close d;
                List.iter
                  (fun p -> try Sys.remove p with Sys_error _ -> ())
                  [ prefix; prefix ^ ".labels"; prefix ^ ".catalog" ])
              deployments)
          (fun () ->
            let servers =
              Array.map
                (fun (_, d, catalog, _) ->
                  Fx_server.Server.start_backend
                    ~config:{ Fx_server.Server.default_config with workers = 2 }
                    (Fx_server.Server.disk ~hopi:d ~catalog))
                deployments
            in
            Fun.protect
              ~finally:(fun () -> Array.iter Fx_server.Server.stop servers)
              (fun () ->
                let shards =
                  Array.to_list servers
                  |> List.map (fun s -> ("127.0.0.1", Fx_server.Server.port s))
                in
                let coord = Coord.create ~closure ~plan ~shards () in
                Fun.protect
                  ~finally:(fun () -> Coord.close coord)
                  (fun () ->
                    let name = Printf.sprintf "coord%d" (SP.n_shards plan) in
                    run_one ~backend_name:name ~workers:4
                      ~extra:(fun ~port ->
                        (* A small repeated EVALUATE mix: the second
                           pass should land in the front server's
                           answer cache. *)
                        let client = Fx_server.Server_client.connect ~port () in
                        for _ = 1 to 2 do
                          List.iter
                            (fun (start_tag, target_tag) ->
                              ignore
                                (Fx_server.Server_client.request client
                                   (Fx_server.Protocol.Evaluate
                                      {
                                        start_tag;
                                        target_tag;
                                        k = 100;
                                        max_dist = None;
                                      })))
                            [
                              ("article", "author");
                              ("inproceedings", "cite");
                              ("article", "title");
                            ]
                        done;
                        let metric name =
                          match Fx_server.Server_client.metrics client with
                          | Ok (Fx_server.Server_client.Value lines) ->
                              List.find_map
                                (fun l ->
                                  match String.split_on_char ' ' l with
                                  | [ n; v ] when n = name -> int_of_string_opt v
                                  | _ -> None)
                                lines
                              |> Option.value ~default:0
                          | _ -> 0
                        in
                        let hits = metric "flix_eval_cache_hits_total" in
                        let misses = metric "flix_eval_cache_misses_total" in
                        Fx_server.Server_client.close client;
                        let rpcs = Coord.probe_rpcs_total coord in
                        let subs = Coord.probe_subs_total coord in
                        let closure_lookups = Coord.closure_lookups_total coord in
                        let hit_rate =
                          if hits + misses = 0 then 0.0
                          else float_of_int hits /. float_of_int (hits + misses)
                        in
                        Printf.printf
                          "  %-22s %d probe rpcs carrying %d subs (%.1f \
                           subs/rpc), cache %d/%d hits (%.0f%%)\n%!"
                          (name ^ " probes:") rpcs subs
                          (if rpcs = 0 then 0.0
                           else float_of_int subs /. float_of_int rpcs)
                          hits (hits + misses) (100.0 *. hit_rate);
                        [
                          ("probe_rpcs", string_of_int rpcs);
                          ("probe_subs", string_of_int subs);
                          ("closure_lookups", string_of_int closure_lookups);
                          ("cache_hits", string_of_int hits);
                          ("cache_misses", string_of_int misses);
                          ("cache_hit_rate", Printf.sprintf "%.4f" hit_rate);
                        ])
                      (Coord.backend coord)))))
      [ 1; 2 ]
  in
  Printf.printf "\nserve-json: {\"bench\":\"serve\",\"docs\":%d,\"cores\":%d,\"rows\":[%s]}\n"
    n_docs cores
    (String.concat "," (memory_rows @ disk_rows @ shard_rows));
  print_newline ();
  print_endline "expectation: req/s scales with worker domains until the acceptor or";
  print_endline "client threads saturate; the disk rows pay the buffer-pool path on";
  print_endline "top — warm pools should track the in-memory numbers. The coord rows";
  print_endline "add a network hop and shard probes per request: coord1 prices the";
  print_endline "fan-out machinery alone, coord2 the actual 2-shard distribution,";
  print_endline "with portal distances joined from precomputed labels (closure_lookups";
  print_endline "in the JSON) rather than probed."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-suite: one Test.make per table/figure-defining
   operation. *)

let micro ctx =
  header "micro: bechamel per-operation latencies";
  let open Bechamel in
  let c = ctx.collection in
  let dg = { Pi.graph = C.graph c; tag = C.tag c } in
  let hopi = Fx_index.Hopi.build dg in
  let apex = Fx_index.Apex.build dg in
  let flix = Flix.build ~config:(MB.Unconnected_hopi { max_size = 5_000 }) c in
  let pee = Flix.pee flix in
  let rng = Fx_util.Rng.create 3 in
  let n = C.n_nodes c in
  let pairs = Array.init 256 (fun _ -> (Fx_util.Rng.int rng n, Fx_util.Rng.int rng n)) in
  let cursor = ref 0 in
  let next_pair () =
    cursor := (!cursor + 1) land 255;
    pairs.(!cursor)
  in
  let start = ctx.hub.start and tag = ctx.article_tag in
  let tests =
    [
      (* Table 1 is about storage, so its micro test is the probe cost
         that storage buys. *)
      Test.make ~name:"table1/hopi-distance"
        (Staged.stage (fun () ->
             let a, b = next_pair () in
             ignore (Fx_index.Hopi.distance hopi a b)));
      Test.make ~name:"table1/apex-distance"
        (Staged.stage (fun () ->
             let a, b = next_pair () in
             ignore (Fx_index.Apex.distance apex a b)));
      (* Figure 5: first result of the hub descendants query. *)
      Test.make ~name:"figure5/flix-first-result"
        (Staged.stage (fun () ->
             ignore (RS.next (Pee.descendants ?tag pee ~start))));
      Test.make ~name:"figure5/hopi-full-block"
        (Staged.stage (fun () -> ignore (Fx_index.Hopi.descendants_by_tag hopi start tag)));
      (* E4: the connection test, behind the document-level reachability
         filter (random pairs: most unreachable ones never search). *)
      Test.make ~name:"connect/flix-connected+filter"
        (Staged.stage (fun () ->
             let a, b = next_pair () in
             ignore (Pee.connected ~max_dist:32 pee a b)));
      Test.make ~name:"connect/flix-bidirectional+filter"
        (Staged.stage (fun () ->
             let a, b = next_pair () in
             ignore (Pee.connected_bidir ~max_dist:32 pee a b)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  Printf.printf "%-32s %14s\n" "operation" "ns/op";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.printf "%-32s %14.1f\n%!" name est
          | Some [] | None -> Printf.printf "%-32s %14s\n%!" name "n/a")
        ols)
    tests

(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: main.exe [all|table1|figure5|errors|connect|multi|hybrid|psweep|exact|cache|\n\
    \                 ordering|serve|micro] [--docs N] [--seed N]";
  exit 1

let () =
  let args = Array.to_list Sys.argv in
  let rec parse cmd docs seed = function
    | [] -> (cmd, docs, seed)
    | "--docs" :: v :: rest -> parse cmd (int_of_string v) seed rest
    | "--seed" :: v :: rest -> parse cmd docs (int_of_string v) rest
    | a :: rest
      when List.mem a
             [ "all"; "table1"; "figure5"; "errors"; "connect"; "multi"; "hybrid"; "inex";
               "psweep"; "disk"; "exact"; "cache"; "ordering"; "serve"; "micro" ] ->
        parse a docs seed rest
    | _ -> usage ()
  in
  let cmd, docs, seed = parse "all" 6210 7 (List.tl args) in
  Printf.printf "FliX benchmark harness — experiment %s\n%!" cmd;
  if cmd = "hybrid" then hybrid ()
  else if cmd = "inex" then inex ()
  else begin
    let ctx = make_ctx ~docs ~seed in
    match cmd with
    | "table1" -> table1 ctx
    | "figure5" -> figure5 ctx
    | "errors" -> error_rates ctx
    | "connect" -> connect ctx
    | "multi" -> multi ctx
    | "psweep" -> psweep ctx
    | "micro" -> micro ctx
    | "inex" -> inex ()
    | "disk" -> disk ctx
    | "exact" -> exact_ablation ctx
    | "cache" -> cache_ablation ctx
    | "ordering" -> ordering_ablation ctx
    | "serve" -> serve ctx
    | "all" ->
        table1 ctx;
        figure5 ctx;
        error_rates ctx;
        connect ctx;
        multi ctx;
        hybrid ();
        inex ();
        psweep ctx;
        disk ctx;
        exact_ablation ctx;
        cache_ablation ctx;
        ordering_ablation ctx;
        serve ctx;
        micro ctx
    | _ -> usage ()
  end
