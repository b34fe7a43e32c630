(* Result records: printing, the JSON results file, and compare. *)

open Runner

let metric_json (m : metric) = (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ])

let to_json r =
  let c = r.cfg in
  let num x = Json.Num (float_of_int x) in
  Json.Obj
    [
      ("workload", Json.Str (Mix.name c.kind));
      ("seed", num c.seed);
      ("nproc", num (nproc ()));
      ("docs", num c.docs);
      ("seconds", Json.Num c.seconds);
      ("clients", num c.clients);
      ("workers", num c.workers);
      ("traced", Json.Bool (Option.is_some c.trace_dir));
      ("correct", Json.Bool r.correct);
      ("attempted", num r.attempted);
      ("failed", num r.failed);
      ("verified", num r.verified);
      ( "requests",
        Json.Obj [ ("warmup", num r.warmup_ops); ("timed", num r.timed_ops); ("admin", num r.admin_ops) ] );
      ("metrics", Json.Obj (List.map metric_json r.metrics));
      ("layers", Json.Obj (List.map metric_json r.layers));
      ("notes", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.notes));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) r.problems));
    ]

let value_of metrics name = List.find_map (fun (m : metric) -> if m.name = name then Some m else None) metrics

(* Every metric the workload defines is printed by name, with "n/a" and
   the reason when a run could not measure it. *)
let print r =
  let c = r.cfg in
  Printf.printf "\n%s  seed %d  %d docs  %d clients  %d workers  %.0f s%s\n" (Mix.name c.kind) c.seed
    c.docs c.clients c.workers c.seconds
    (if Option.is_some c.trace_dir then "  (traced)" else "");
  Printf.printf "  requests: %d warm-up, %d timed, %d admin; %d failed; %s\n" r.warmup_ops r.timed_ops
    r.admin_ops r.failed
    (if r.correct then "verification passed" else "VERIFICATION FAILED");
  List.iter (fun (k, v) -> Printf.printf "  %-24s %s\n" k v) r.notes;
  print_endline "  end to end:";
  List.iter
    (fun name ->
      match value_of r.metrics name with
      | Some m -> Printf.printf "    %-30s %14.4f %s\n" name m.value m.unit
      | None -> Printf.printf "    %-30s %14s (too few samples)\n" name "n/a")
    (Mix.metrics c.kind);
  print_endline "  per layer:";
  List.iter (fun (m : metric) -> Printf.printf "    %-36s %14.4f %s\n" m.name m.value m.unit) r.layers;
  List.iter (fun p -> Printf.printf "  problem: %s\n" p) r.problems

(* --- the results file: {"runs": [record, ...]} ---------------------------- *)

let load path =
  if not (Sys.file_exists path) then Ok []
  else
    match Json.parse (Procs.read_file path) with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok v -> Ok (Json.to_list (Option.value (Json.member "runs" v) ~default:(Json.Arr [])))

let append path records =
  match load path with
  | Error e -> Error e
  | Ok old ->
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc "{\"runs\": [\n";
          List.iteri
            (fun i r ->
              if i > 0 then output_string oc ",\n";
              output_string oc (Json.to_string r))
            (old @ records);
          output_string oc "\n]}\n");
      Ok ()

(* --- compare --------------------------------------------------------------- *)

let field k r = Option.value (Json.member k r) ~default:Json.Null

(* Settings every run of a workload must share to be comparable, the
   request counts among them. Seeds may vary within a side, but both
   sides must have run the same ones. *)
let identity = [ "nproc"; "docs"; "seconds"; "clients"; "workers"; "requests" ]

let metric_value r name =
  Option.bind (Json.member "metrics" r) (fun ms ->
      Option.bind (Json.member name ms) (fun m -> Option.bind (Json.member "value" m) Json.to_num))

type row = {
  workload : string;
  spec : Verdict.spec;
  base : float array;
  next : float array;
  missing : int;  (** new runs without the metric *)
  verdict : Verdict.verdict;
}

(* Compare untraced runs workload by workload; [Error] when the two sides
   were measured under different settings. A metric every base run has
   and some new run lacks regressed: a percentile that lost its samples,
   say. One only new runs have is unresolved. *)
let compare_runs base next =
  let untraced l = List.filter (fun r -> field "traced" r <> Json.Bool true) l in
  let base = untraced base and next = untraced next in
  let workloads =
    List.sort_uniq String.compare
      (List.filter_map (fun r -> Json.to_str (field "workload" r)) base)
    |> List.filter (fun w -> List.exists (fun r -> field "workload" r = Json.Str w) next)
  in
  let of_workload w l = List.filter (fun r -> field "workload" r = Json.Str w) l in
  let mismatch =
    List.find_map
      (fun w ->
        let seeds l = List.sort_uniq Stdlib.compare (List.map (field "seed") (of_workload w l)) in
        let runs = of_workload w base @ of_workload w next in
        if seeds base <> seeds next then
          Some (Printf.sprintf "%s: the two sides ran different seeds" w)
        else
          List.find_map
            (fun k ->
              match List.sort_uniq Stdlib.compare (List.map (field k) runs) with
              | [ _ ] -> None
              | vs ->
                  Some
                    (Printf.sprintf "%s: runs differ in %s (%s)" w k
                       (String.concat ", " (List.map Json.to_string vs))))
            identity)
      workloads
  in
  match (workloads, mismatch) with
  | [], _ -> Error "no workload appears on both sides"
  | _, Some m -> Error m
  | _, None ->
      Ok
        (List.concat_map
           (fun w ->
             List.filter_map
               (fun (spec : Verdict.spec) ->
                 let values l = Array.of_list (List.filter_map (fun r -> metric_value r spec.metric) (of_workload w l)) in
                 let b = values base and n = values next in
                 let missing = List.length (of_workload w next) - Array.length n in
                 let row verdict = Some { workload = w; spec; base = b; next = n; missing; verdict } in
                 if not (Verdict.gated ~workload:w spec.metric) then None
                 else if Array.length b = 0 then if Array.length n = 0 then None else row Verdict.Unresolved
                 else if missing > 0 && Array.length b = List.length (of_workload w base) then row Verdict.Regressed
                 else if Array.length n = 0 then row Verdict.Unresolved
                 else row (Verdict.classify ~better:spec.better ~bound:spec.bound ~base:b ~next:n))
               Verdict.end_to_end)
           workloads)

let print_rows rows =
  Printf.printf "%-11s %-28s %14s %22s %14s %22s %8s  %s\n" "workload" "metric" "base" "[q1, q3]" "new"
    "[q1, q3]" "change" "verdict";
  List.iter
    (fun row ->
      let q a =
        if Array.length a = 0 then "n/a"
        else
          let q1, q3 = Pct.quartiles a in
          Printf.sprintf "[%.4g, %.4g]" q1 q3
      in
      let mb = Pct.median row.base and mn = Pct.median row.next in
      let change = if mb = 0.0 || Float.is_nan mb || Float.is_nan mn then 0.0 else 100.0 *. (mn -. mb) /. Float.abs mb in
      Printf.printf "%-11s %-28s %14.4f %22s %14.4f %22s %7.1f%%  %s%s\n" row.workload row.spec.metric mb
        (q row.base) mn (q row.next) change (Verdict.verdict_name row.verdict)
        (if row.missing > 0 then Printf.sprintf " (missing from %d new runs)" row.missing else ""))
    rows
