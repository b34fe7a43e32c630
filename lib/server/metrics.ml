let verbs =
  [
    "ping"; "stats"; "metrics"; "sleep"; "descendants"; "ancestors"; "connected";
    "evaluate"; "resolve"; "batch"; "ingest"; "evict"; "reload"; "epoch"; "other";
  ]

let n_verbs = List.length verbs

let verb_index verb =
  let rec go i = function
    | [] -> n_verbs - 1 (* "other" *)
    | v :: _ when v = verb -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 verbs

let family name ~help kind =
  let kind =
    match kind with `Counter -> "counter" | `Gauge -> "gauge" | `Histogram -> "histogram"
  in
  [ Printf.sprintf "# HELP %s %s" name help; Printf.sprintf "# TYPE %s %s" name kind ]

module Histogram = struct
  type t = {
    bounds : float array;
    whole : bool;  (* whole-number samples: the sum renders as an integer *)
    buckets : int Atomic.t array;  (* per bucket, non-cumulative; last slot = +Inf *)
    count : int Atomic.t;
    (* the sum in millionths of the observed unit: Atomic has no float
       fetch-add *)
    sum_micro : int Atomic.t;
  }

  let make ~whole bounds =
    {
      bounds;
      whole;
      buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum_micro = Atomic.make 0;
    }

  let create bounds = make ~whole:false bounds
  let create_count bounds = make ~whole:true (Array.map float_of_int bounds)

  let observe t v =
    let rec bucket i =
      if i >= Array.length t.bounds || v <= t.bounds.(i) then i else bucket (i + 1)
    in
    Atomic.incr t.buckets.(bucket 0);
    Atomic.incr t.count;
    ignore (Atomic.fetch_and_add t.sum_micro (Float.to_int (Float.round (v *. 1e6))))

  let count t = Atomic.get t.count

  let le_label b =
    if Float.is_integer b then Printf.sprintf "%.0f" b else Printf.sprintf "%g" b

  let render t ~name ~labels =
    let series suffix extra =
      match List.filter (( <> ) "") [ labels; extra ] with
      | [] -> name ^ suffix
      | ls -> Printf.sprintf "%s%s{%s}" name suffix (String.concat "," ls)
    in
    let cumulative = ref 0 in
    let buckets =
      List.init (Array.length t.buckets) (fun i ->
          cumulative := !cumulative + Atomic.get t.buckets.(i);
          let le = if i < Array.length t.bounds then le_label t.bounds.(i) else "+Inf" in
          Printf.sprintf "%s %d" (series "_bucket" (Printf.sprintf "le=\"%s\"" le)) !cumulative)
    in
    let sum = Atomic.get t.sum_micro in
    buckets
    @ [
        (if t.whole then Printf.sprintf "%s %d" (series "_sum" "") (sum / 1_000_000)
         else Printf.sprintf "%s %.6f" (series "_sum" "") (float_of_int sum /. 1e6));
        Printf.sprintf "%s %d" (series "_count" "") (count t);
      ]
end

(* Upper bounds in milliseconds. Log-spaced to cover sub-ms index
   probes up to multi-second deadline-bounded scans. *)
let buckets_ms =
  [| 0.1; 0.25; 0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 50.0; 100.0; 250.0; 500.0; 1000.0; 2500.0 |]

type t = {
  requests : int Atomic.t array;          (* per verb *)
  timeouts : int Atomic.t array;          (* per verb *)
  rejected : int Atomic.t;
  errors : int Atomic.t;
  durations : Histogram.t array;          (* per verb *)
  (* extra gauge/counter sources (e.g. buffer-pool stats) appended to
     [render]; the list is tiny and rarely touched, so a plain mutex *)
  mutable collectors : (unit -> string list) list;
  collectors_lock : Mutex.t;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let atomic_row n = Array.init n (fun _ -> Atomic.make 0)

let create () =
  {
    requests = atomic_row n_verbs;
    timeouts = atomic_row n_verbs;
    rejected = Atomic.make 0;
    errors = Atomic.make 0;
    durations = Array.init n_verbs (fun _ -> Histogram.create buckets_ms);
    collectors = [];
    collectors_lock = Mutex.create ();
  }

let register_collector t f =
  with_lock t.collectors_lock (fun () -> t.collectors <- t.collectors @ [ f ])

let incr_requests t ~verb = Atomic.incr t.requests.(verb_index verb)
let incr_rejected t = Atomic.incr t.rejected
let incr_timeouts t ~verb = Atomic.incr t.timeouts.(verb_index verb)
let incr_errors t = Atomic.incr t.errors
let observe_ms t ~verb ms = Histogram.observe t.durations.(verb_index verb) ms

let requests_total t ~verb = Atomic.get t.requests.(verb_index verb)
let rejected_total t = Atomic.get t.rejected
let timeouts_total t ~verb = Atomic.get t.timeouts.(verb_index verb)
let errors_total t = Atomic.get t.errors
let observations t ~verb = Histogram.count t.durations.(verb_index verb)

(* --- rendering ------------------------------------------------------ *)

let verb_label verb = Printf.sprintf "verb=\"%s\"" verb

let render t =
  let per_verb name row =
    List.mapi
      (fun i verb -> Printf.sprintf "%s{%s} %d" name (verb_label verb) (Atomic.get row.(i)))
      verbs
  in
  family "flix_requests_total" ~help:"Requests received, by verb." `Counter
  @ per_verb "flix_requests_total" t.requests
  @ family "flix_rejected_total" ~help:"Requests rejected by admission control (BUSY)."
      `Counter
  @ [ Printf.sprintf "flix_rejected_total %d" (Atomic.get t.rejected) ]
  @ family "flix_timeouts_total" ~help:"Requests cut off by their deadline, by verb." `Counter
  @ per_verb "flix_timeouts_total" t.timeouts
  @ family "flix_errors_total" ~help:"Malformed or failed requests answered with ERR."
      `Counter
  @ [ Printf.sprintf "flix_errors_total %d" (Atomic.get t.errors) ]
  @ family "flix_request_duration_ms" ~help:"Request service time, by verb." `Histogram
  @ List.concat
      (List.mapi
         (fun i verb ->
           Histogram.render t.durations.(i) ~name:"flix_request_duration_ms"
             ~labels:(verb_label verb))
         verbs)
  @ (let collectors = with_lock t.collectors_lock (fun () -> t.collectors) in
     List.concat_map (fun f -> f ()) collectors)
