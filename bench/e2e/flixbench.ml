(* flixbench — the FliX service benchmark. See README.md in this
   directory.

     flixbench run [--workload W]... [--seed N] [--seconds S]
                   [--trace DIR] [--out R.json] [--serve EXE] [--work DIR]
     flixbench compare BASE.json NEW.json
     flixbench [--spec BENCHMARK.json] smoke [--serve EXE] [--work DIR]
     flixbench [--spec BENCHMARK.json] --workload W --seed N --seconds S --trace 0|1

   The last form prints, as its final line, one JSON object with the
   metrics BENCHMARK.json at the repository root names: its end_to_end
   metrics untraced, its per_layer metrics with --trace 1. *)

open Fxbench

let usage () =
  prerr_endline
    "usage: flixbench run [--workload W]... [--seed N] [--seconds S] [--trace DIR] [--out R.json]\n\
    \                     [--serve EXE] [--work DIR]\n\
    \       flixbench compare BASE.json NEW.json\n\
    \       flixbench [--spec BENCHMARK.json] smoke [--serve EXE] [--work DIR]\n\
    \       flixbench [--spec BENCHMARK.json] --workload W --seed N --seconds S --trace 0|1\n\
     workloads: mem-read disk-read coord-read mem-ingest";
  exit 2

type opts = {
  mutable workloads : Mix.kind list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : string option;
  mutable out : string option;
  mutable serve : string;
  mutable work : string;
}

let parse_opts args =
  let o =
    {
      workloads = [];
      seed = 1;
      seconds = Mix.phase_seconds;
      trace = None;
      out = None;
      serve = "_build/default/bin/flix_serve.exe";
      work = Mix.work_dir;
    }
  in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        (match Mix.of_name w with Some k -> o.workloads <- o.workloads @ [ k ] | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        o.seed <- num int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        o.seconds <- num float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        o.trace <- Some v;
        go rest
    | "--out" :: v :: rest ->
        o.out <- Some v;
        go rest
    | "--serve" :: v :: rest ->
        o.serve <- v;
        go rest
    | "--work" :: v :: rest ->
        o.work <- v;
        go rest
    | _ -> usage ()
  in
  go args;
  o

(* One client and one server worker per core. *)
let cfg_of o kind =
  let nproc = Runner.nproc () in
  {
    Runner.kind;
    seed = o.seed;
    docs = Mix.default_docs kind;
    seconds = o.seconds;
    warmup_s = 1.0;
    setups = 3;
    clients = nproc;
    workers = nproc;
    serve_exe = o.serve;
    work = o.work;
    trace_dir = None;
  }

let run_one cfg =
  match Runner.run cfg with
  | Ok r ->
      Report.print r;
      r
  | Error e ->
      Printf.eprintf "flixbench: %s: %s\n" (Mix.name cfg.Runner.kind) e;
      exit 1

let save out records =
  Option.iter
    (fun path ->
      match Report.append path (List.map Report.to_json records) with
      | Ok () -> Printf.printf "\nappended %d run(s) to %s\n" (List.length records) path
      | Error e ->
          Printf.eprintf "flixbench: %s\n" e;
          exit 1)
    out

(* run: untraced by default; with --trace DIR an untraced run and then a
   traced one per workload, and the tracing overhead between them. *)
let cmd_run args =
  let o = parse_opts args in
  let kinds = if o.workloads = [] then Mix.all else o.workloads in
  let records =
    List.concat_map
      (fun kind ->
        let cfg = cfg_of o kind in
        let plain = run_one cfg in
        match o.trace with
        | None -> [ plain ]
        | Some dir ->
            let traced = run_one { cfg with trace_dir = Some dir } in
            Printf.printf "  tracing overhead (traced - untraced):\n";
            List.iter
              (fun (m : Runner.metric) ->
                match Report.value_of traced.metrics m.name with
                | Some t -> Printf.printf "    %-30s %+14.4f %s\n" m.name (t.value -. m.value) m.unit
                | None -> ())
              plain.metrics;
            Printf.printf "  span file: %s\n" (Filename.concat dir (Mix.name kind ^ ".trace.json"));
            [ plain; traced ])
      kinds
  in
  save o.out records;
  if List.exists (fun (r : Runner.result) -> not r.correct) records then exit 1

let cmd_compare = function
  | [ base; next ] -> (
      match (Report.load base, Report.load next) with
      | Error e, _ | _, Error e ->
          prerr_endline ("flixbench compare: " ^ e);
          exit 2
      | Ok b, Ok n -> (
          match Report.compare_runs b n with
          | Error e ->
              prerr_endline ("flixbench compare: refusing: " ^ e);
              exit 2
          | Ok rows ->
              Report.print_rows rows;
              if List.exists (fun (r : Report.row) -> r.verdict = Verdict.Regressed) rows then begin
                print_endline "\nregression: at least one metric is worse than its bound";
                exit 1
              end))
  | _ -> usage ()

(* The (name, unit) lists BENCHMARK.json names under [key]:
   "end_to_end" or "per_layer". That file is the one list of the metrics
   the one-line summary carries. *)
let spec_metrics path key =
  match Json.parse (Procs.read_file path) with
  | Error e ->
      Printf.eprintf "flixbench: %s: %s\n" path e;
      exit 2
  | Ok spec ->
      List.filter_map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.Str name), Some (Json.Str unit) -> Some (name, unit)
          | _ -> None)
        (Json.to_list (Option.value (Json.member key spec) ~default:Json.Null))

(* Metrics of [spec] that [measured] lacks or gives another unit. *)
let unmeasured spec measured =
  List.filter_map
    (fun (name, unit) ->
      match Report.value_of measured name with
      | Some m when m.Runner.unit = unit -> None
      | Some m -> Some (Printf.sprintf "%s in %s, not %s" name m.unit unit)
      | None -> Some name)
    spec

(* smoke: every workload at 200 documents with the request counts of 2 s
   phases, traced so the replay path runs too. Each run must fail
   nothing, pass verification, write its span file, and measure every
   end-to-end metric of [spec]. Some workload must measure each per-layer
   metric of [spec]. *)
let cmd_smoke ~spec args =
  let o = parse_opts args in
  let trace = Filename.concat o.work "smoke-trace" in
  let runs =
    List.map
      (fun kind ->
        let cfg =
          { (cfg_of o kind) with docs = 200; seconds = 2.0; warmup_s = 0.3; setups = 1; trace_dir = Some trace }
        in
        let r = run_one cfg in
        let span_file = Filename.concat trace (Mix.name kind ^ ".trace.json") in
        let errors =
          (if r.correct then [] else [ "an operation failed or verification failed" ])
          @ (match Report.value_of r.metrics "error_rate" with
            | Some { value = 0.0; _ } -> []
            | _ -> [ "error_rate is not 0" ])
          @ List.map (fun n -> "metric not measured: " ^ n) (unmeasured (spec_metrics spec "end_to_end") r.metrics)
          @ if Sys.file_exists span_file then [] else [ "no span file " ^ span_file ]
        in
        (kind, r, errors))
      Mix.all
  in
  let layer_errors =
    List.filter_map
      (fun (name, unit) ->
        if
          List.exists
            (fun (_, (r : Runner.result), _) -> unmeasured [ (name, unit) ] (r.layers @ r.metrics) = [])
            runs
        then None
        else Some ("per-layer metric not measured by any workload: " ^ name))
      (spec_metrics spec "per_layer")
  in
  let errors =
    List.concat_map (fun (kind, _, errs) -> List.map (fun e -> Mix.name kind ^ ": " ^ e) errs) runs
    @ layer_errors
  in
  List.iter (fun e -> print_endline ("smoke: " ^ e)) errors;
  if errors <> [] then exit 1 else print_endline "\nsmoke: all four workloads passed"

(* The BENCHMARK.json form: one workload, one seed. The last stdout line
   is the JSON summary with the end-to-end metrics of [spec], or with
   --trace 1 its per-layer ones; a layer the workload does not exercise
   reads 0. Exits 1, without the summary, when an end-to-end metric could
   not be measured. *)
let cmd_bench ~spec args =
  let rec split rest traced = function
    | "--trace" :: "0" :: tl -> split rest (Some false) tl
    | "--trace" :: "1" :: tl -> split rest (Some true) tl
    | "--trace" :: _ -> usage ()
    | x :: tl -> split (x :: rest) traced tl
    | [] -> (List.rev rest, traced)
  in
  let rest, traced = split [] None args in
  let o = parse_opts rest in
  match (o.workloads, traced) with
  | [ kind ], Some traced ->
      let cfg = cfg_of o kind in
      let cfg = if traced then { cfg with trace_dir = Some (Filename.concat cfg.work "trace") } else cfg in
      let r = run_one cfg in
      let metric (name, unit) v = (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]) in
      let metrics =
        if traced then
          List.map
            (fun ((name, _) as m) ->
              metric m
                (Option.fold ~none:0.0
                   ~some:(fun (x : Runner.metric) -> x.value)
                   (Report.value_of (r.layers @ r.metrics) name)))
            (spec_metrics spec "per_layer")
        else
          let wanted = spec_metrics spec "end_to_end" in
          match unmeasured wanted r.metrics with
          | [] -> List.map (fun ((name, _) as m) -> metric m (Option.get (Report.value_of r.metrics name)).value) wanted
          | missing ->
              Printf.eprintf "flixbench: not measured: %s\n" (String.concat ", " missing);
              exit 1
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool r.correct);
                ("attempted", Json.Num (float_of_int r.attempted));
                ("failed", Json.Num (float_of_int r.failed));
                ("metrics", Json.Obj metrics);
              ]))
  | _ -> usage ()

(* [--spec PATH] (default BENCHMARK.json) may lead any command. *)
let spec_and_args = function
  | "--spec" :: path :: rest -> (path, rest)
  | rest -> ("BENCHMARK.json", rest)

let () =
  let spec, args = spec_and_args (List.tl (Array.to_list Sys.argv)) in
  match args with
  | "run" :: args -> cmd_run args
  | "compare" :: args -> cmd_compare args
  | "smoke" :: args -> cmd_smoke ~spec args
  | ("--workload" :: _) as args -> cmd_bench ~spec args
  | _ -> usage ()
