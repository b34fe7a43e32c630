(* Unit tests for flixbench's pure parts: the percentile rule, the
   regression bounds and compare, the METRICS scrape parser, the
   ground-truth checker, and the request streams. *)

open Fxbench

let check = Alcotest.(check bool)
let opt_float = Alcotest.(option (float 1e-9))

(* --- percentiles ---------------------------------------------------------- *)

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_tail_rule () =
  (* p99 over 1,000 samples: rank 990, ten samples beyond it. *)
  Alcotest.check opt_float "p99 of 1000" (Some 990.0) (Pct.percentile 99.0 (ramp 1000));
  (* One sample fewer leaves nine beyond the rank: not reported. *)
  Alcotest.check opt_float "p99 of 999" None (Pct.percentile 99.0 (ramp 999));
  Alcotest.check opt_float "p90 of 100" (Some 90.0) (Pct.percentile 90.0 (ramp 100));
  Alcotest.check opt_float "p90 of 99" None (Pct.percentile 90.0 (ramp 99));
  Alcotest.check opt_float "p50 of 20" (Some 10.0) (Pct.percentile 50.0 (ramp 20));
  Alcotest.check opt_float "empty" None (Pct.percentile 50.0 [||]);
  Alcotest.(check int) "p99 needs" 1000 (Pct.samples_needed 99.0);
  Alcotest.(check int) "p90 needs" 100 (Pct.samples_needed 90.0)

let test_percentile_failures_count_as_slow () =
  (* A failed request is recorded as infinitely slow, so it pushes the
     tail up instead of vanishing from it. *)
  let lat = Array.append (Array.make 90 1.0) (Array.make 10 Float.infinity) in
  Alcotest.check opt_float "p90 with failures" (Some 1.0) (Pct.percentile 90.0 (Pct.sorted lat));
  let lat = Array.append (Array.make 89 1.0) (Array.make 11 Float.infinity) in
  Alcotest.check opt_float "p90 past failures" (Some Float.infinity)
    (Pct.percentile 90.0 (Pct.sorted lat))

let test_quartiles_match_python () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Pct.quartiles (ramp 10) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3;
  (* statistics.quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0] *)
  let q1, q3 = Pct.quartiles [| 16.0; 1.0; 8.0; 2.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "q1 odd" 1.5 q1;
  Alcotest.(check (float 1e-9)) "q3 odd" 12.0 q3;
  Alcotest.(check (float 1e-9)) "median even" 5.5 (Pct.median (ramp 10))

(* --- bounds and compare ------------------------------------------------- *)

let verdict =
  Alcotest.testable (fun f v -> Format.pp_print_string f (Verdict.verdict_name v)) ( = )

let classify ?(better = Verdict.Lower) ?(rel = 0.10) ?(floor = 0.0) base next =
  Verdict.classify ~better ~bound:{ Verdict.rel; floor } ~base:(Array.of_list base)
    ~next:(Array.of_list next)

let steady x = [ x; x *. 1.01; x *. 0.99; x *. 1.005; x *. 0.995 ]

let test_verdict_bounds () =
  Alcotest.check verdict "same" Verdict.Unchanged (classify (steady 10.0) (steady 10.0));
  Alcotest.check verdict "within 10%" Verdict.Unchanged (classify (steady 10.0) (steady 10.8));
  Alcotest.check verdict "latency up 20%" Verdict.Regressed (classify (steady 10.0) (steady 12.0));
  Alcotest.check verdict "latency down 20%" Verdict.Improved (classify (steady 10.0) (steady 8.0));
  Alcotest.check verdict "throughput down 20%" Verdict.Regressed
    (classify ~better:Verdict.Higher (steady 100.0) (steady 80.0));
  Alcotest.check verdict "throughput up 20%" Verdict.Improved
    (classify ~better:Verdict.Higher (steady 100.0) (steady 120.0))

let test_verdict_floor () =
  (* 0.10 -> 0.13 ms is 30% worse, but within the 0.05 ms floor. *)
  Alcotest.check verdict "under floor" Verdict.Unchanged
    (classify ~floor:0.05 (steady 0.10) (steady 0.13));
  Alcotest.check verdict "past floor" Verdict.Regressed
    (classify ~floor:0.05 (steady 0.10) (steady 0.16));
  (* An absolute-only bound, as for error_rate: 0 -> 0.002 regresses. *)
  Alcotest.check verdict "absolute" Verdict.Regressed
    (classify ~rel:0.0 ~floor:0.001 [ 0.0; 0.0; 0.0 ] [ 0.002; 0.002; 0.002 ]);
  Alcotest.check verdict "absolute within" Verdict.Unchanged
    (classify ~rel:0.0 ~floor:0.001 [ 0.0; 0.0; 0.0 ] [ 0.0005; 0.0; 0.0 ])

let test_verdict_unresolved () =
  let wide = [ 6.0; 9.0; 10.0; 11.0; 14.0 ] in
  Alcotest.check verdict "spread wider than bound" Verdict.Unresolved
    (classify wide [ 6.5; 9.5; 10.5; 11.5; 14.5 ]);
  (* Even a wide spread is a gain when every new run beats every base run. *)
  Alcotest.check verdict "all runs better" Verdict.Improved (classify wide [ 1.0; 2.0; 3.0; 4.0; 5.5 ]);
  (* A wide spread on the new side alone also hides a regression. *)
  Alcotest.check verdict "new side wide" Verdict.Unresolved
    (classify (steady 10.0) [ 7.0; 10.0; 11.0; 13.0; 16.0 ])

let record ?(workload = "coord-read") ?(docs = 1000) ?(seed = 1) ?(nproc = 2) ?(timed = 26400) metrics =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("nproc", Json.Num (float_of_int nproc));
      ("docs", Json.Num (float_of_int docs));
      ("seconds", Json.Num 20.0);
      ("clients", Json.Num 2.0);
      ("workers", Json.Num 2.0);
      ("requests", Json.Obj [ ("warmup", Json.Num 1280.0); ("timed", Json.Num (float_of_int timed)) ]);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str "ms") ]))
             metrics) );
    ]

let test_compare_runs () =
  let side p50 = List.map (fun v -> record [ ("latency_p50_ms", v) ]) (steady p50) in
  (match Report.compare_runs (side 1.0) (side 1.5) with
  | Ok [ row ] ->
      Alcotest.(check string) "metric" "latency_p50_ms" row.spec.metric;
      Alcotest.check verdict "regressed" Verdict.Regressed row.verdict
  | Ok rows -> Alcotest.failf "%d rows" (List.length rows)
  | Error e -> Alcotest.fail e);
  let refused base next =
    match Report.compare_runs base next with Error _ -> true | Ok _ -> false
  in
  let one ?docs ?seed ?nproc ?timed () = [ record ?docs ?seed ?nproc ?timed [ ("latency_p50_ms", 1.0) ] ] in
  check "docs differ" true (refused (one ()) (one ~docs:200 ()));
  check "seed differs" true (refused (one ()) (one ~seed:2 ()));
  check "nproc differs" true (refused (one ()) (one ~nproc:4 ()));
  check "request count differs" true (refused (one ()) (one ~timed:26480 ()));
  check "same settings" false (refused (one ()) (one ()));
  (* Several seeds per side compare when both sides ran the same ones. *)
  let seeds l = List.map (fun seed -> record ~seed [ ("latency_p50_ms", 1.0) ]) l in
  check "same seed set" false (refused (seeds [ 1; 2; 3 ]) (seeds [ 3; 1; 2 ]));
  check "other seed set" true (refused (seeds [ 1; 2; 3 ]) (seeds [ 1; 2; 4 ]))

let test_compare_ungated () =
  (* mem-ingest's throughput is left out; mem-read's is compared. *)
  let side workload v = List.map (fun x -> record ~workload [ ("throughput_rps", x) ]) (steady v) in
  match Report.compare_runs (side "mem-ingest" 100.0 @ side "mem-read" 100.0) (side "mem-ingest" 50.0 @ side "mem-read" 50.0) with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      Alcotest.(check (list string)) "rows" [ "mem-read" ] (List.map (fun (r : Report.row) -> r.workload) rows)

let test_compare_missing () =
  (* A metric every base run has and a new run lacks is a regression,
     not a row left out; one only the new runs have is unresolved. *)
  let base = List.map (fun v -> record [ ("latency_p50_ms", 1.0); ("latency_p99_ms", v) ]) (steady 5.0) in
  let next =
    List.mapi
      (fun i v ->
        record ([ ("latency_p50_ms", 1.0); ("setup_s", 0.5) ] @ if i = 0 then [] else [ ("latency_p99_ms", v) ]))
      (steady 5.0)
  in
  match Report.compare_runs base next with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      let v metric = (List.find (fun (r : Report.row) -> r.spec.metric = metric) rows).verdict in
      Alcotest.check verdict "p50 still there" Verdict.Unchanged (v "latency_p50_ms");
      Alcotest.check verdict "p99 lost in one run" Verdict.Regressed (v "latency_p99_ms");
      Alcotest.check verdict "setup_s new" Verdict.Unresolved (v "setup_s")

(* --- the METRICS scrape -------------------------------------------------- *)

let exposition =
  [
    "# HELP flix_requests_total Requests answered, by verb.";
    "# TYPE flix_requests_total counter";
    "flix_requests_total{verb=\"descendants\"} 12";
    "flix_requests_total{verb=\"connected\"} 3";
    "flix_request_duration_ms_bucket{verb=\"descendants\",le=\"+Inf\"} 12";
    "flix_request_duration_ms_sum{verb=\"descendants\"} 6.500000";
    "flix_request_duration_ms_count{verb=\"descendants\"} 12";
    "flix_request_duration_ms_sum{verb=\"connected\"} 1.25";
    "flix_request_duration_ms_count{verb=\"connected\"} 3";
    "flix_odd{path=\"a \\\"b\\\", c\",verb=\"x\"} 1e3";
    "flix_uptime_seconds 42.5";
    "";
  ]

let test_prom_parse () =
  match Prom.parse exposition with
  | Error e -> Alcotest.fail e
  | Ok samples ->
      let sum ?where name = Prom.sum ?where samples name in
      let f = Alcotest.(check (float 1e-9)) in
      f "unlabelled" 42.5 (sum "flix_uptime_seconds");
      f "all verbs" 15.0 (sum "flix_requests_total");
      f "one verb" 3.0 (sum ~where:[ ("verb", "connected") ] "flix_requests_total");
      f "_sum" 6.5 (sum ~where:[ ("verb", "descendants") ] "flix_request_duration_ms_sum");
      f "_count" 15.0 (sum "flix_request_duration_ms_count");
      f "bucket is its own series" 12.0 (sum "flix_request_duration_ms_bucket");
      f "escaped label" 1000.0 (sum ~where:[ ("path", "a \"b\", c") ] "flix_odd");
      f "absent" 0.0 (sum "flix_nothing");
      f "label mismatch" 0.0 (sum ~where:[ ("verb", "evaluate") ] "flix_requests_total")

let test_prom_rejects () =
  let bad l = match Prom.parse [ l ] with Error _ -> true | Ok _ -> false in
  check "no value" true (bad "flix_x");
  check "bad value" true (bad "flix_x abc");
  check "unterminated label" true (bad "flix_x{verb=\"a} 1");
  check "unquoted label" true (bad "flix_x{verb=a} 1");
  check "comment" false (bad "# TYPE flix_x gauge")

(* --- ground truth -------------------------------------------------------- *)

(* 0 -> 1 -> 2 -> 3, 0 -> 4, 4 -> 3, and 5 unreachable. Tags: 1, 3, 4
   and 5 are "a"; 2 is "b". True distances from 0: 1:1 2:2 3:2 4:1. *)
let graph = Fx_graph.Digraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (0, 4); (4, 3) ]
let tag_a v = v = 1 || v = 3 || v = 4 || v = 5
let dist = Truth.bfs graph [ 0 ]

let items mode k l = Truth.check_items ~mode ~dist ~tag_ok:tag_a ~min_dist:1 ~k l
let ok = function Ok () -> true | Error _ -> false

let test_truth_bfs () =
  Alcotest.(check (array int)) "forward" [| 0; 1; 2; 2; 1; -1 |] dist;
  Alcotest.(check (array int)) "reverse" [| 2; 2; 1; 0; 1; -1 |] (Truth.bfs ~reverse:true graph [ 3 ])

let test_truth_exact () =
  check "right" true (ok (items Truth.Exact 2 [ (1, 1); (4, 1) ]));
  check "ties in any order" true (ok (items Truth.Exact 3 [ (4, 1); (3, 2); (1, 1) ]));
  check "wrong distance" false (ok (items Truth.Exact 2 [ (1, 1); (4, 2) ]));
  check "not the k nearest" false (ok (items Truth.Exact 2 [ (1, 1); (3, 2) ]));
  check "duplicate node" false (ok (items Truth.Exact 3 [ (1, 1); (4, 1); (1, 1) ]));
  check "wrong tag" false (ok (items Truth.Exact 2 [ (1, 1); (2, 2) ]));
  check "short top-k" false (ok (items Truth.Exact 3 [ (1, 1); (4, 1) ]));
  check "unreachable" false (ok (items Truth.Exact 3 [ (1, 1); (4, 1); (5, 3) ]));
  check "start itself" false (ok (Truth.check_items ~mode:Truth.Exact ~dist ~tag_ok:(fun _ -> true)
                                    ~min_dist:1 ~k:1 [ (0, 0) ]));
  check "fewer exist than k" true (ok (items Truth.Exact 10 [ (1, 1); (4, 1); (3, 2) ]))

let test_truth_approx () =
  check "upper-bound distance" true (ok (items Truth.Approx 2 [ (3, 5); (1, 1) ]));
  check "below true distance" false (ok (items Truth.Approx 2 [ (3, 1); (1, 1) ]));
  check "duplicate node" false (ok (items Truth.Approx 2 [ (1, 1); (1, 1) ]));
  check "wrong tag" false (ok (items Truth.Approx 2 [ (2, 2); (1, 1) ]));
  check "short top-k" false (ok (items Truth.Approx 3 [ (1, 1) ]))

let test_truth_connected () =
  let conn ?engine mode truth answer = ok (Truth.check_connected ~mode ~truth ~max_dist:4 ?engine answer) in
  check "exact" true (conn Truth.Exact 2 (Some 2));
  check "exact wrong" false (conn Truth.Exact 2 (Some 3));
  check "unreachable" true (conn Truth.Exact (-1) None);
  check "beyond max_dist" true (conn Truth.Exact 6 None);
  check "missed" false (conn Truth.Exact 2 None);
  check "approx bound" true (conn Truth.Approx 2 (Some 4));
  check "approx below truth" false (conn Truth.Approx 2 (Some 1));
  check "approx pruned by its own bound" true (conn ~engine:(fun () -> Some 7) Truth.Approx 2 None);
  check "approx missed" false (conn ~engine:(fun () -> Some 3) Truth.Approx 2 None)

(* --- request streams ------------------------------------------------------ *)

let test_spread_order () =
  Alcotest.(check (array int)) "8" [| 0; 4; 2; 6; 1; 5; 3; 7 |] (Mix.spread_order 8);
  let o = Mix.spread_order 100 in
  let sorted = Array.copy o in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "a permutation" (Array.init 100 Fun.id) sorted;
  (* Any prefix of 2^k visits each stretch of 100/2^k values at most
     twice: 8 values, one from each eighth give or take. *)
  let eighths = Array.make 8 0 in
  Array.iter (fun v -> eighths.(v * 8 / 100) <- eighths.(v * 8 / 100) + 1) (Array.sub o 0 8);
  check "first 8 spread" true (Array.for_all (fun c -> c <= 2) eighths)

let test_per_client () =
  List.iter
    (fun kind ->
      let n = Mix.per_client kind 20.0 in
      check (Mix.name kind ^ " whole blocks") true (n > 0 && n mod Mix.block = 0))
    Mix.all

(* A 100-document collection of 10 nodes each, without links. *)
let shape =
  {
    Mix.n_docs = 100;
    n_nodes = 1000;
    doc_names = Array.init 100 (Printf.sprintf "d%d");
    roots = Array.init 100 (fun d -> 10 * d);
    ends = Array.init 100 (fun d -> (10 * d) + 10);
    cites = Array.make 100 [||];
  }

let test_stream_stratified () =
  (* disk-read's doc//author class sends 9 of every 80 requests, so 225
     in 2,000, and 4.5 of them are due in the last two documents. On the
     grid every seed sends 4 or 5 there; drawn uniformly, seeds would
     range from about 1 to 9. *)
  let n = 25 * Mix.block in
  List.iter
    (fun seed ->
      let next = Mix.stream Mix.Disk_read shape (Fx_util.Rng.create seed) ~n in
      let late = ref 0 and author = ref 0 in
      for _ = 1 to n do
        match next () with
        | Mix.Desc { tag = "author"; start; _ } ->
            incr author;
            if start >= 980 then incr late
        | _ -> ()
      done;
      Alcotest.(check int) "author requests" 225 !author;
      check (Printf.sprintf "seed %d: %d late" seed !late) true (!late = 4 || !late = 5))
    (List.init 20 (fun i -> i + 1))

let () =
  Alcotest.run "flixbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "tail rule" `Quick test_percentile_tail_rule;
          Alcotest.test_case "failures count as slow" `Quick test_percentile_failures_count_as_slow;
          Alcotest.test_case "quartiles" `Quick test_quartiles_match_python;
        ] );
      ( "compare",
        [
          Alcotest.test_case "bounds" `Quick test_verdict_bounds;
          Alcotest.test_case "floors" `Quick test_verdict_floor;
          Alcotest.test_case "unresolved" `Quick test_verdict_unresolved;
          Alcotest.test_case "runs" `Quick test_compare_runs;
          Alcotest.test_case "missing metrics" `Quick test_compare_missing;
          Alcotest.test_case "ungated pairs" `Quick test_compare_ungated;
        ] );
      ( "prom",
        [
          Alcotest.test_case "parse and sum" `Quick test_prom_parse;
          Alcotest.test_case "malformed" `Quick test_prom_rejects;
        ] );
      ( "truth",
        [
          Alcotest.test_case "bfs" `Quick test_truth_bfs;
          Alcotest.test_case "exact" `Quick test_truth_exact;
          Alcotest.test_case "approximate" `Quick test_truth_approx;
          Alcotest.test_case "connected" `Quick test_truth_connected;
        ] );
      ( "mix",
        [
          Alcotest.test_case "spread order" `Quick test_spread_order;
          Alcotest.test_case "whole blocks" `Quick test_per_client;
          Alcotest.test_case "stratified start documents" `Quick test_stream_stratified;
        ] );
    ]
