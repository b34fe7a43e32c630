(* Regression bounds and the compare rule.

   A metric may worsen by max(rel * |base median|, floor) before a
   change counts as a regression; [floor] keeps sub-millisecond and
   near-zero metrics from flagging on clock granularity. When the
   run-to-run spread of either side (the distance between its
   quartiles) is wider than that allowance, the runs cannot tell a
   regression from noise and the verdict is unresolved, unless every new
   run beats every base run. *)

type better = Higher | Lower
type bound = { rel : float; floor : float }
type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let allowance bound base_median = Float.max (bound.rel *. Float.abs base_median) bound.floor

(* How much worse [v] is than [base], positive when worse. *)
let worsening better ~base v = match better with Lower -> v -. base | Higher -> base -. v

(* The end-to-end metrics compare gates, with their units and bounds,
   in report order: 10% for timings and memory, with floors. These are
   compare's own, for two sets of runs at the same seeds; BENCHMARK.json's
   bounds answer another question (README.md, "Bounds"). *)
type spec = { metric : string; unit : string; better : better; bound : bound }

let end_to_end =
  let s metric unit better rel floor = { metric; unit; better; bound = { rel; floor } } in
  [
    s "throughput_rps" "ops/s" Higher 0.10 0.0;
    s "latency_p50_ms" "ms" Lower 0.10 0.02;
    s "latency_p90_ms" "ms" Lower 0.10 0.1;
    s "latency_p99_ms" "ms" Lower 0.10 0.5;
    s "error_rate" "ratio" Lower 0.0 0.001;
    s "setup_s" "s" Lower 0.10 0.25;
    s "server_rss_mb" "MB" Lower 0.10 5.0;
    s "stored_bytes_per_input_byte" "ratio" Lower 0.02 0.0;
    s "admin_p50_ms" "ms" Lower 0.10 0.0;
  ]

(* Workload and metric pairs compare leaves out: on the seed code, the
   medians of two sets of five runs moved further apart than the bound
   (results/seed-nproc2.json; README.md, "Stability"). *)
let ungated =
  [
    ("mem-read", "latency_p50_ms");
    ("mem-read", "latency_p90_ms");
    ("mem-ingest", "throughput_rps");
    ("mem-ingest", "admin_p50_ms");
  ]

let gated ~workload metric = not (List.mem (workload, metric) ungated)

let classify ~better ~bound ~base ~next =
  let mb = Pct.median base and mn = Pct.median next in
  let allowed = allowance bound mb in
  let spread = Float.max (Pct.iqr base) (Pct.iqr next) in
  let w = worsening better ~base:mb mn in
  let all_better =
    Array.for_all (fun n -> Array.for_all (fun b -> worsening better ~base:b n < 0.0) base) next
  in
  if spread > allowed then if all_better then Improved else Unresolved
  else if w > allowed then Regressed
  else if -.w > allowed then Improved
  else Unchanged
