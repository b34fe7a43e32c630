(* One workload run: generate the seeded collection, write it as XML
   files, start the real flix_serve processes on them, drive them over
   the wire from closed-loop clients, one domain each (plus mem-ingest's
   open-loop writer), check every answer, and derive the metrics.

   Order of a run: generate -> set up [setups] times (setup_s is the
   median; the last deployment stays up) -> warm up from a separate
   seeded stream -> METRICS scrape -> timed phase, a fixed number of
   requests per client -> METRICS scrape and VmHWM -> stop the servers
   -> ground-truth check of the sampled answers, untimed. *)

module Stopwatch = Fx_util.Stopwatch
module SC = Fx_server.Server_client
module P = Fx_server.Protocol
module C = Fx_xml.Collection
module Flix = Fx_flix.Flix
module RS = Fx_flix.Result_stream

type config = {
  kind : Mix.kind;
  seed : int;
  docs : int;
  seconds : float;
  warmup_s : float;
  setups : int;
  clients : int;
  workers : int;
  serve_exe : string;
  work : string;
  trace_dir : string option;
}

type metric = { name : string; value : float; unit : string }

type result = {
  cfg : config;
  attempted : int;
  failed : int;
  verified : int;
  correct : bool;
  problems : string list;  (** first failures and ground-truth mismatches *)
  warmup_ops : int;  (** requests planned for each part, sent or not *)
  timed_ops : int;
  admin_ops : int;
  metrics : metric list;  (** end-to-end *)
  layers : metric list;  (** per layer *)
  notes : (string * string) list;  (** printed context: setup runs, lateness, samples *)
}

let now = Stopwatch.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let secs_after t0 s = Int64.add t0 (Int64.of_float (s *. 1e9))

(* --- files ------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> st_size
  | _ -> 0

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* --- collection ----------------------------------------------------------- *)

type collection = {
  coll : C.t;  (** what the servers load, parsed back from the files *)
  input_bytes : int;
  parse_ms_per_doc : float;
  batch : (string * string) list;  (** mem-ingest: (name, xml) of the ingest batch *)
  batch_docs : Fx_xml.Xml_types.document list;
}

let prepare cfg ~xml_dir =
  let extra = if cfg.kind = Mix.Mem_ingest then Mix.batch_size else 0 in
  let docs =
    Fx_workload.Dblp_gen.generate
      { Fx_workload.Dblp_gen.paper_scale with n_docs = cfg.docs + extra; seed = Mix.collection_seed }
  in
  let served = List.filteri (fun i _ -> i < cfg.docs) docs in
  let batch_docs = List.filteri (fun i _ -> i >= cfg.docs) docs in
  let texts =
    List.map
      (fun (d : Fx_xml.Xml_types.document) -> (d.name, Fx_xml.Xml_print.to_string d))
      served
  in
  List.iter (fun (name, s) -> write_file (Filename.concat xml_dir (name ^ ".xml")) s) texts;
  (* The truth collection is parsed back from the very bytes the servers
     read, so node ids agree with theirs by construction. *)
  let t0 = now () in
  let parsed = List.map (fun (name, s) -> Fx_xml.Xml_parser.parse_exn ~name s) texts in
  let parse_ms = ms_between t0 (now ()) in
  {
    coll = C.build parsed;
    input_bytes = List.fold_left (fun acc (_, s) -> acc + String.length s) 0 texts;
    parse_ms_per_doc = parse_ms /. float_of_int (max 1 (List.length texts));
    batch =
      List.map
        (fun (d : Fx_xml.Xml_types.document) -> (d.name, Fx_xml.Xml_print.to_string d))
        batch_docs;
    batch_docs;
  }

(* --- deployment ------------------------------------------------------------ *)

type deployment = {
  procs : Procs.t list;  (** every server process *)
  entry : int;  (** port clients talk to *)
  shard_ports : int list;  (** coord-read's shard servers *)
  index_dir : string option;
}

(* Start the workload's servers; [Error] after stopping whatever had
   started. *)
let deploy cfg ~dir ~xml_dir =
  let started = ref [] in
  let spawn name args =
    let p =
      Procs.spawn ~exe:cfg.serve_exe ~args ~log:(Filename.concat dir (name ^ ".log")) ~name
    in
    started := p :: !started;
    p
  in
  let ready p = match Procs.wait_ready p with Ok port -> port | Error e -> failwith e in
  let common = [ "--port"; "0"; "--workers"; string_of_int cfg.workers ] in
  let pool = [ "--pool-pages"; string_of_int (Mix.pool_pages cfg.kind) ] in
  match
    match cfg.kind with
    | Mix.Mem_read | Mix.Mem_ingest ->
        let p = spawn "server" (common @ [ "--xml-dir"; xml_dir ]) in
        { procs = [ p ]; entry = ready p; shard_ports = []; index_dir = None }
    | Mix.Disk_read ->
        let idx = Filename.concat dir "index" in
        rm_rf idx;
        let p = spawn "server" (common @ pool @ [ "--xml-dir"; xml_dir; "--index-dir"; idx ]) in
        { procs = [ p ]; entry = ready p; shard_ports = []; index_dir = Some idx }
    | Mix.Coord_read ->
        let idx = Filename.concat dir "shards" in
        rm_rf idx;
        (match
           Procs.run ~exe:cfg.serve_exe
             ~args:[ "--build-shards"; "2"; "--index-dir"; idx; "--xml-dir"; xml_dir ]
             ~log:(Filename.concat dir "build-shards.log") ~name:"build-shards" ()
         with
        | Ok () -> ()
        | Error e -> failwith e);
        (* The coordinator pulls many portal result streams at once, one
           shard request each; past a shard's queue (64 by default) they
           come back BUSY and the answer degrades to PARTIAL. *)
        let shard_procs =
          List.init 2 (fun i ->
              spawn (Printf.sprintf "shard%d" i)
                (common @ pool
                @ [ "--queue"; string_of_int Mix.shard_queue; "--index-dir";
                    Filename.concat idx (Printf.sprintf "shard%d" i) ]))
        in
        let shard_ports = List.map ready shard_procs in
        let coord =
          spawn "coordinator"
            (common
            @ [ "--coordinator"; "--index-dir"; idx; "--coord-cache"; "256" ]
            @ List.concat_map (fun port -> [ "--shard"; Printf.sprintf "127.0.0.1:%d" port ]) shard_ports)
        in
        { procs = coord :: shard_procs; entry = ready coord; shard_ports; index_dir = Some idx }
  with
  | d -> Ok d
  | exception Failure e ->
      Procs.stop_all !started;
      Error e

(* --- wire -------------------------------------------------------------------- *)

let connect port = SC.connect ~recv_timeout:30.0 ~port ()

(* One request, with the inline structural check: trailer, at most k
   items, no node twice. A [`Transport] failure leaves the connection's
   framing unknown. *)
let exec conn (op : Mix.op) =
  let refused m = Error (`Refused m) in
  match SC.request conn (Mix.request op) with
  | Error e -> Error (`Transport e)
  | Ok P.Busy -> refused "BUSY"
  | Ok (P.Err m) -> refused ("ERR " ^ m)
  | Ok (P.Items { timed_out = true; _ }) -> refused "TIMEOUT trailer"
  | Ok (P.Items { partial = true; _ }) -> refused "PARTIAL trailer"
  | Ok (P.Items { items; _ }) -> (
      let l = List.map (fun (it : P.item) -> (it.node, it.dist)) items in
      match op with
      | Mix.Conn _ -> refused "items answered to CONNECTED"
      | _ when List.length l > Mix.k_of op -> refused "more items than k"
      | _ -> (
          match Truth.duplicate l with
          | Some (v, _) -> refused (Printf.sprintf "node %d twice" v)
          | None -> Ok (Replay.Items l)))
  | Ok (P.Dist d) -> (
      match op with Mix.Conn _ -> Ok (Replay.Dist d) | _ -> refused "DIST answered to a stream verb")
  | Ok _ -> refused "unexpected response"

let scrape port =
  match connect port with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | c ->
      Fun.protect
        ~finally:(fun () -> SC.close c)
        (fun () ->
          match SC.metrics c with
          | Ok (SC.Value lines) -> Prom.parse lines
          | Ok _ -> Error "METRICS refused"
          | Error e -> Error e)

(* --- clients ----------------------------------------------------------------- *)

type client = {
  id : int;
  mutable conn : SC.t option;  (** None once a reconnect failed *)
  port : int;
  mutable lat : float array;  (** ms per send; infinity for a failed request *)
  mutable n : int;
  mutable ok_lat_sum : float;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable samples : (Mix.op * Replay.answer) list;
  mutable n_samples : int;
  sample_cap : int;
  recorder : Spans.recorder option;
  replay : Replay.thread option;
}

let sample_every = 16

let push_lat c ms =
  if c.n >= Array.length c.lat then begin
    let bigger = Array.make (2 * Array.length c.lat) 0.0 in
    Array.blit c.lat 0 bigger 0 c.n;
    c.lat <- bigger
  end;
  c.lat.(c.n) <- ms;
  c.n <- c.n + 1

let note_problem c msg = if List.length c.problems < 5 then c.problems <- msg :: c.problems

(* A transport failure leaves the framing unknown: reconnect. When that
   fails the client has no connection, and its fd is never closed
   twice. *)
let reconnect c =
  Option.iter SC.close c.conn;
  c.conn <- None;
  match connect c.port with
  | conn -> c.conn <- Some conn
  | exception Unix.Unix_error _ -> ()

(* Closed loop over requests 0 .. [count] - 1: send [gen i], wait for
   the answer, repeat, until done, past [guard], or out of connection.
   Returns how many were sent. [timed] records latencies, failures,
   every 16th answer for verification, and spans; the requests left
   unsent count as failed. *)
let client_loop c ~gen ~count ~guard ~timed =
  let rec loop i =
    match c.conn with
    | Some conn when i < count && Int64.compare (now ()) guard < 0 ->
        let op = gen i in
        let t0 = now () in
        let r = exec conn op in
        let t1 = now () in
        if timed then begin
          c.attempted <- c.attempted + 1;
          (match r with
          | Ok answer ->
              let ms = ms_between t0 t1 in
              push_lat c ms;
              c.ok_lat_sum <- c.ok_lat_sum +. ms;
              if i mod sample_every = 0 && c.n_samples < c.sample_cap then begin
                c.samples <- (op, answer) :: c.samples;
                c.n_samples <- c.n_samples + 1
              end
          | Error (`Transport e | `Refused e) ->
              c.failed <- c.failed + 1;
              push_lat c Float.infinity;
              note_problem c (Printf.sprintf "%s: %s" (P.request_line (Mix.request op)) e));
          match (c.recorder, c.replay) with
          | Some r, Some th ->
              let children = Replay.op th op in
              let t2 = now () in
              Spans.finish_op r ~op:((c.id lsl 40) lor i)
                (Spans.span ~parent:(-1) "op" t0 t2 ~args:[ ("verb", Mix.verb op) ]
                :: Spans.span ~parent:0 "wire" t0 t1
                :: children)
          | _ -> ()
        end;
        (match r with Error (`Transport _) -> reconnect c | Ok _ | Error (`Refused _) -> ());
        loop (i + 1)
    | _ -> i
  in
  let sent = loop 0 in
  if timed && sent < count then begin
    let unsent = count - sent in
    c.attempted <- c.attempted + unsent;
    c.failed <- c.failed + unsent;
    for _ = 1 to unsent do
      push_lat c Float.infinity
    done;
    note_problem c
      (Printf.sprintf "%d requests not sent: %s" unsent
         (if Option.is_none c.conn then "no connection" else "the phase guard fired"))
  end;
  sent

(* --- mem-ingest's writer ------------------------------------------------------- *)

type admin = {
  mutable a_attempted : int;
  mutable a_failed : int;
  mutable a_lat : float list;  (** from when each operation was due *)
  mutable late : float list;  (** how late each was sent *)
  mutable a_problems : string list;
  mutable extend_ms : float list;
  mutable remove_ms : float list;
  mutable reused : int;
  mutable extended : int;
  mutable swaps : int;
}

(* Open loop at [Mix.admin_rate_hz]: [count] operations, INGEST the
   batch, EVICT it, INGEST it again, ... each sent when due, or as soon
   as the previous answer is in when the writer runs late. Operations
   not due before [guard] count as failed. *)
let writer ~port ~(collection : collection) ~start ~count ~guard ~replay ~recorder =
  let a =
    {
      a_attempted = 0; a_failed = 0; a_lat = []; late = []; a_problems = []; extend_ms = [];
      remove_ms = []; reused = 0; extended = 0; swaps = 0;
    }
  in
  let names = List.map fst collection.batch in
  let conn = connect port in
  Fun.protect
    ~finally:(fun () -> SC.close conn)
    (fun () ->
      let rec loop i =
        let due = secs_after start (float_of_int i /. Mix.admin_rate_hz) in
        if i < count && Int64.compare due guard < 0 then begin
          let wait = ms_between (now ()) due in
          if wait > 0.0 then Thread.delay (wait /. 1000.0);
          let sent = now () in
          let ingest = i mod 2 = 0 in
          let r = if ingest then SC.ingest conn collection.batch else SC.evict conn names in
          let fin = now () in
          a.a_attempted <- a.a_attempted + 1;
          a.late <- ms_between due sent :: a.late;
          (match r with
          | Ok (SC.Value _) -> a.a_lat <- ms_between due fin :: a.a_lat
          | Ok SC.Busy | Ok (SC.Server_error _) | Error _ ->
              a.a_failed <- a.a_failed + 1;
              a.a_lat <- Float.infinity :: a.a_lat;
              if List.length a.a_problems < 5 then
                a.a_problems <-
                  (match r with
                  | Ok (SC.Server_error m) -> "admin: ERR " ^ m
                  | Ok SC.Busy -> "admin: BUSY"
                  | Error e -> "admin: transport: " ^ e
                  | Ok (SC.Value _) -> "admin")
                  :: a.a_problems);
          (match (replay, recorder) with
          | Some flix, Some r ->
              let cur = Atomic.get flix in
              let t0 = now () in
              let next =
                if ingest then Flix.extend cur collection.batch_docs else Flix.remove cur names
              in
              let t1 = now () in
              Atomic.set flix next;
              let built = Flix.built next in
              a.reused <- a.reused + Fx_flix.Index_builder.reused_count built;
              a.extended <- a.extended + Fx_flix.Index_builder.extended_count built;
              a.swaps <- a.swaps + 1;
              let name = if ingest then "flix.extend" else "flix.remove" in
              if ingest then a.extend_ms <- ms_between t0 t1 :: a.extend_ms
              else a.remove_ms <- ms_between t0 t1 :: a.remove_ms;
              Spans.finish_op r ~op:i
                [
                  Spans.span ~parent:(-1) "admin" sent t1
                    ~args:[ ("verb", if ingest then "ingest" else "evict") ];
                  Spans.span ~parent:0 "admin.wire" sent fin;
                  Spans.span ~parent:0 name t0 t1;
                ]
          | _ -> ());
          loop (i + 1)
        end
        else i
      in
      let unsent = count - loop 0 in
      if unsent > 0 then begin
        a.a_attempted <- a.a_attempted + unsent;
        a.a_failed <- a.a_failed + unsent;
        a.a_problems <- Printf.sprintf "admin: %d operations not sent: the phase guard fired" unsent :: a.a_problems
      end;
      a)

(* --- verification ------------------------------------------------------------ *)

(* mem-ingest's EVALUATE answers must equal the library's answer on the
   base collection or on base + batch: the server may have answered on
   either epoch. *)
let ingest_references (collection : collection) =
  let base = Flix.build collection.coll in
  let grown = Flix.extend base collection.batch_docs in
  let cache = Hashtbl.create 32 in
  fun ~start_tag ~target_tag ~k ->
    let key = (start_tag, target_tag, k) in
    match Hashtbl.find_opt cache key with
    | Some refs -> refs
    | None ->
        let refs =
          List.map
            (fun flix ->
              List.map
                (fun (it : Fx_flix.Pee.item) -> (it.node, it.dist))
                (RS.take k (Flix.evaluate flix ~start_tag ~target_tag)))
            [ base; grown ]
        in
        Hashtbl.replace cache key refs;
        refs

let verify cfg (collection : collection) samples =
  let coll = collection.coll in
  let g = C.graph coll in
  let tags = C.tag coll in
  let mode =
    match cfg.kind with
    | Mix.Disk_read | Mix.Coord_read -> Truth.Exact
    | Mix.Mem_read | Mix.Mem_ingest -> Truth.Approx
  in
  let tag_ok name =
    match C.tag_id coll name with Some id -> fun v -> tags.(v) = id | None -> fun _ -> false
  in
  let refs = if cfg.kind = Mix.Mem_ingest then Some (ingest_references collection) else None in
  let library = lazy (Flix.build coll) in
  let eval_dist = Hashtbl.create 8 in
  let check (op : Mix.op) answer =
    match (op, answer) with
    | Mix.Desc { start; tag; k; _ }, Replay.Items items ->
        Truth.check_items ~mode ~dist:(Truth.bfs g [ start ]) ~tag_ok:(tag_ok tag) ~min_dist:1 ~k
          items
    | Mix.Anc { node; tag; k }, Replay.Items items ->
        Truth.check_items ~mode
          ~dist:(Truth.bfs ~reverse:true g [ node ])
          ~tag_ok:(tag_ok tag) ~min_dist:0 ~k items
    | Mix.Conn { a; b; max_dist }, Replay.Dist d ->
        Truth.check_connected ~mode ~truth:(Truth.bfs g [ a ]).(b) ~max_dist d
          ~engine:(fun () -> Flix.connected (Lazy.force library) a b)
    | Mix.Eval { start_tag; target_tag; k; _ }, Replay.Items items -> (
        match refs with
        | Some refs ->
            if List.mem items (refs ~start_tag ~target_tag ~k) then Ok ()
            else Error "differs from the library's answer on both epochs"
        | None ->
            let dist =
              match Hashtbl.find_opt eval_dist start_tag with
              | Some d -> d
              | None ->
                  let d = Truth.bfs g (C.find_by_tag coll start_tag) in
                  Hashtbl.replace eval_dist start_tag d;
                  d
            in
            Truth.check_items ~mode ~dist ~tag_ok:(tag_ok target_tag) ~min_dist:1 ~k items)
    | _ -> Error "answer of the wrong kind"
  in
  List.filter_map
    (fun (op, answer) ->
      match check op answer with
      | Ok () -> None
      | Error e -> Some (Printf.sprintf "ground truth, %s: %s" (P.request_line (Mix.request op)) e))
    samples

(* --- metrics ------------------------------------------------------------------ *)

let clock_tick_ms = 10.0 (* USER_HZ = 100 on Linux *)

(* Per-layer numbers from the before/after METRICS scrapes. *)
let scrape_layers ~entry_before ~entry_after ~shard_before ~shard_after ~kind ~ops
    ~client_mean_ms =
  let delta before after where name = Prom.sum ~where after name -. Prom.sum ~where before name in
  let e = delta entry_before entry_after [] and s = delta shard_before shard_after [] in
  let a name = e name +. s name in
  (* Request-duration histograms are labelled by verb. *)
  let by_verb before after verbs name =
    List.fold_left (fun acc v -> acc +. delta before after [ ("verb", v) ] name) 0.0 verbs
  in
  let ev verbs = by_verb entry_before entry_after verbs
  and sv verbs = by_verb shard_before shard_after verbs in
  let per_op x = x /. float_of_int (max 1 ops) in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  let server_time =
    ratio (ev Mix.read_verbs "flix_request_duration_ms_sum") (ev Mix.read_verbs "flix_request_duration_ms_count")
  in
  let m name value unit = { name; value; unit } in
  let verb_times =
    List.filter_map
      (fun v ->
        let c = ev [ v ] "flix_request_duration_ms_count" in
        if c > 0.0 then
          Some (m ("server.time_ms." ^ v) (ev [ v ] "flix_request_duration_ms_sum" /. c) "ms")
        else None)
      Mix.read_verbs
  in
  let pager =
    match kind with
    | Mix.Disk_read | Mix.Coord_read ->
        let src = if kind = Mix.Disk_read then e else s in
        let hits = src "flix_pager_pool_hits_total" and misses = src "flix_pager_pool_misses_total" in
        let acq = src "flix_pager_stripe_lock_acquisitions_total" in
        [
          m "pager.logical_reads_per_op" (per_op (hits +. misses)) "count";
          m "pager.miss_ratio" (ratio misses (hits +. misses)) "ratio";
          m "pager.lock_acquisitions_per_op" (per_op acq) "count";
          m "pager.lock_contended_ratio" (ratio (src "flix_pager_stripe_lock_contended_total") acq) "ratio";
        ]
    | Mix.Mem_read | Mix.Mem_ingest -> []
  in
  let memory =
    match kind with
    | Mix.Mem_read | Mix.Mem_ingest ->
        let hits = e "flix_eval_cache_hits_total" and misses = e "flix_eval_cache_misses_total" in
        let swaps = e "flix_reload_duration_seconds_count" in
        [ m "eval_cache.hit_ratio" (ratio hits (hits +. misses)) "ratio" ]
        @
        if kind = Mix.Mem_ingest then
          [
            m "eval_cache.invalidated_per_swap" (ratio (e "flix_eval_cache_invalidated_total") swaps) "count";
            m "snapshot.swap_ms" (1000.0 *. ratio (e "flix_reload_duration_seconds_sum") swaps) "ms";
          ]
        else []
    | Mix.Disk_read | Mix.Coord_read -> []
  in
  let coord =
    match kind with
    | Mix.Coord_read ->
        let shard_verbs = "batch" :: Mix.read_verbs in
        let shard_time_sum = sv shard_verbs "flix_request_duration_ms_sum"
        and shard_time_count = sv shard_verbs "flix_request_duration_ms_count" in
        let hits = e "flix_coord_cache_hits_total" and misses = e "flix_coord_cache_misses_total" in
        [
          m "shard.probe_rpcs_per_op" (per_op (e "flix_shard_probe_rpcs_total")) "count";
          m "shard.probe_subs_per_op" (per_op (e "flix_shard_probe_subs_total")) "count";
          m "shard.fanout_ms"
            (ratio (e "flix_shard_fanout_latency_ms_sum") (e "flix_shard_fanout_latency_ms_count"))
            "ms";
          m "shard.server_time_ms" (ratio shard_time_sum shard_time_count) "ms";
          m "shard.errors" (e "flix_shard_errors_total") "count";
          m "coord.closure_lookups_per_op" (per_op (e "flix_coord_closure_lookups_total")) "count";
          m "coord.closure_fallbacks" (e "flix_coord_closure_fallbacks_total") "count";
          m "coord.cache_hit_ratio" (ratio hits (hits +. misses)) "ratio";
        ]
    | Mix.Mem_read | Mix.Disk_read | Mix.Mem_ingest -> []
  in
  [
    m "server.time_ms" server_time "ms";
    m "server.wire_ms" (client_mean_ms -. server_time) "ms";
  ]
  @ verb_times
  @ [
      m "server.busy" (a "flix_rejected_total") "count";
      m "server.timeouts" (a "flix_timeouts_total") "count";
    ]
  @ pager @ memory @ coord

let trace_layers ~recorders ~threads ~admin =
  let m name value unit = { name; value; unit } in
  let means = Spans.self_means recorders in
  let mean key = List.find_map (fun (k, v, _) -> if k = key then Some v else None) means in
  let opt name key = Option.map (fun v -> m name v "ms") (mean key) in
  let c = Replay.sum_counters threads in
  let per x = float_of_int x /. float_of_int (max 1 c.ops) in
  (* [eval] is whichever evaluator the backend uses; its self time is
     also kept per verb under that evaluator's name. *)
  let span_selfs =
    List.filter_map (fun n -> opt (n ^ ".self_ms") n)
      [ "wire"; "protocol.parse"; "resolve"; "eval"; "protocol.render" ]
  in
  let layer_selfs =
    List.concat_map
      (fun layer ->
        List.filter_map
          (fun verb -> opt (Printf.sprintf "%s.self_ms.%s" layer verb) (layer ^ "." ^ verb))
          Mix.read_verbs)
      [ "pee"; "disk_hopi" ]
  in
  let pee_used = List.exists (fun (k, _, _) -> String.length k > 4 && String.sub k 0 4 = "pee.") means in
  let pee =
    if pee_used then
      [
        m "pee.queue_inserts_per_op" (per c.queue_inserts) "count";
        m "pee.entry_drops_per_op" (per c.entry_drops) "count";
        m "pee.items_per_op" (per c.items) "count";
      ]
    else []
  in
  let disk =
    if c.candidate_items > 0 then
      [ m "disk_hopi.candidates_per_item" (float_of_int c.candidates /. float_of_int c.candidate_items) "ratio" ]
    else []
  in
  let admin =
    match admin with
    | Some a when a.swaps > 0 ->
        let mean_of l = Pct.mean (Array.of_list l) in
        let per_swap x = float_of_int x /. float_of_int a.swaps in
        List.filter (fun x -> Float.is_finite x.value)
          [
            m "flix.extend_ms" (mean_of a.extend_ms) "ms";
            m "flix.remove_ms" (mean_of a.remove_ms) "ms";
            m "index_builder.reused_per_swap" (per_swap a.reused) "count";
            m "index_builder.extended_per_swap" (per_swap a.extended) "count";
          ]
    | _ -> []
  in
  span_selfs @ layer_selfs @ pee @ disk @ admin

(* --- the run --------------------------------------------------------------- *)

let nproc () = Domain.recommended_domain_count ()

let measure cfg ~collection ~shape ~deployment:d ~setup_runs ~clients ~replay_backend =
  let n_clients = List.length clients in
  let gen ~warmup ~n c =
    let next = Mix.stream cfg.kind shape (Mix.client_rng ~seed:cfg.seed ~warmup c.id) ~n in
    fun i -> Mix.fresh cfg.kind shape (next ()) ~unique:((i * n_clients) + c.id + if warmup then 1 lsl 40 else 0)
  in
  (* One domain per client: a traced client's in-process replay then
     never holds the runtime lock another client needs to take its
     answer off the wire. *)
  let in_parallel f = List.map (fun c -> Domain.spawn (fun () -> f c)) clients |> List.iter Domain.join in
  (* Warm-up: coord-read first issues each EVALUATE key once, so the
     coordinator's answer cache holds them before timing starts. *)
  (if cfg.kind = Mix.Coord_read then
     let c = List.hd clients in
     Array.iter
       (fun (start_tag, target_tag, k) ->
         Option.iter
           (fun conn -> ignore (exec conn (Mix.Eval { start_tag; target_tag; k; max_dist = None })))
           c.conn)
       Mix.coord_eval_keys);
  let warm_n = Mix.per_client cfg.kind cfg.warmup_s in
  let guard () = secs_after (now ()) Mix.guard_seconds in
  let warm_guard = guard () in
  in_parallel (fun c ->
      ignore (client_loop c ~gen:(gen ~warmup:true ~n:warm_n c) ~count:warm_n ~guard:warm_guard ~timed:false));
  let get_scrape port =
    match scrape port with Ok s -> s | Error e -> failwith ("METRICS scrape: " ^ e)
  in
  let entry_before = get_scrape d.entry in
  let shard_before = List.concat_map get_scrape d.shard_ports in
  let cpu () = List.fold_left (fun acc p -> acc + Option.value ~default:0 (Procs.cpu_ticks p)) 0 d.procs in
  let n = Mix.per_client cfg.kind cfg.seconds in
  let timed_gens = List.map (fun c -> (c.id, gen ~warmup:false ~n c)) clients in
  let admin_n = if cfg.kind = Mix.Mem_ingest then Mix.admin_ops cfg.seconds else 0 in
  let cpu_before = cpu () in
  (* The timed phase. *)
  let start = now () in
  let guard = guard () in
  (* The writer runs on its own domain: traced, it replays each INGEST
     and EVICT through Flix.extend/remove, about 100 ms of computation
     that would otherwise hold the readers' runtime lock. *)
  let writer =
    if cfg.kind = Mix.Mem_ingest then
      let flix = match replay_backend with Some (Replay.Memory f) -> Some f | _ -> None in
      let recorder = Option.map (fun _ -> Spans.recorder 99) flix in
      Some
        (Domain.spawn (fun () ->
             (writer ~port:d.entry ~collection ~start ~count:admin_n ~guard ~replay:flix ~recorder, recorder)))
    else None
  in
  in_parallel (fun c ->
      ignore (client_loop c ~gen:(List.assoc c.id timed_gens) ~count:n ~guard ~timed:true));
  let elapsed_s = ms_between start (now ()) /. 1000.0 in
  let admin, admin_recorder =
    match Option.map Domain.join writer with Some (a, r) -> (Some a, r) | None -> (None, None)
  in
  let cpu_after = cpu () in
  let entry_after = get_scrape d.entry in
  let shard_after = List.concat_map get_scrape d.shard_ports in
  let rss_kb = List.fold_left (fun acc p -> acc + Option.value ~default:0 (Procs.vm_hwm_kb p)) 0 d.procs in
  let stored = Option.map dir_bytes d.index_dir in
  Procs.stop_all d.procs;
  (* Traced output. *)
  let recorders = List.filter_map (fun c -> c.recorder) clients @ Option.to_list admin_recorder in
  Option.iter
    (fun tdir ->
      mkdir_p tdir;
      Spans.write_chrome ~epoch_ns:start
        ~path:(Filename.concat tdir (Mix.name cfg.kind ^ ".trace.json"))
        recorders)
    cfg.trace_dir;
  (* Ground truth, untimed. *)
  let samples = List.concat_map (fun c -> c.samples) clients in
  let mismatches = verify cfg collection samples in
  (* Metrics. *)
  let sorted = Pct.sorted (Array.concat (List.map (fun c -> Array.sub c.lat 0 c.n) clients)) in
  let reads = Array.length sorted in
  let read_failed = List.fold_left (fun acc c -> acc + c.failed) 0 clients in
  let ok_reads = reads - read_failed in
  let a_attempted, a_failed = match admin with Some a -> (a.a_attempted, a.a_failed) | None -> (0, 0) in
  let attempted = reads + a_attempted and failed = read_failed + a_failed in
  let m name value unit = { name; value; unit } in
  let pct name p lat = Option.map (fun v -> m name v "ms") (Pct.percentile p lat) in
  let metrics =
    [ m "throughput_rps" (float_of_int ok_reads /. elapsed_s) "ops/s" ]
    @ Option.to_list (pct "latency_p50_ms" 50.0 sorted)
    @ Option.to_list (pct "latency_p90_ms" 90.0 sorted)
    @ Option.to_list (pct "latency_p99_ms" 99.0 sorted)
    @ [
        m "error_rate" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio";
        m "setup_s" (Pct.median (Array.of_list setup_runs)) "s";
        m "server_rss_mb" (float_of_int rss_kb /. 1024.0) "MB";
      ]
    @ (match stored with
      | Some b -> [ m "stored_bytes_per_input_byte" (float_of_int b /. float_of_int collection.input_bytes) "ratio" ]
      | None -> [])
    @
    match admin with
    | Some a ->
        let s = Pct.sorted (Array.of_list a.a_lat) in
        Option.to_list (pct "admin_p50_ms" 50.0 s) @ Option.to_list (pct "admin_p90_ms" 90.0 s)
    | None -> []
  in
  let client_mean = List.fold_left (fun acc c -> acc +. c.ok_lat_sum) 0.0 clients /. float_of_int (max 1 ok_reads) in
  let layers =
    scrape_layers ~entry_before ~entry_after ~shard_before ~shard_after ~kind:cfg.kind ~ops:ok_reads
      ~client_mean_ms:client_mean
    @ [
        m "server.cpu_ms_per_op"
          (float_of_int (cpu_after - cpu_before) *. clock_tick_ms /. float_of_int (max 1 ok_reads))
          "ms";
        m "xml.parse_ms_per_doc" collection.parse_ms_per_doc "ms";
      ]
    @
    if recorders = [] then []
    else
      trace_layers ~recorders
        ~threads:(List.filter_map (fun c -> c.replay) clients)
        ~admin
  in
  let problems =
    List.concat_map (fun c -> List.rev c.problems) clients
    @ (match admin with Some a -> List.rev a.a_problems | None -> [])
    @ mismatches
  in
  let notes =
    [
      ("setup_runs_s", String.concat " " (List.map (Printf.sprintf "%.3f") setup_runs));
      ("phase_s", Printf.sprintf "%.2f" elapsed_s);
      ( "latency_samples",
        Printf.sprintf "%d requests (p99 needs %d)" reads (Pct.samples_needed 99.0) );
      ("verified", Printf.sprintf "%d sampled answers" (List.length samples));
    ]
    @
    match admin with
    | Some a ->
        let late = Pct.sorted (Array.of_list a.late) in
        [
          ( "admin_lateness_ms",
            Printf.sprintf "p50 %.3f max %.3f"
              (Pct.median late)
              (if Array.length late = 0 then 0.0 else late.(Array.length late - 1)) );
        ]
    | None -> []
  in
  {
    cfg;
    attempted;
    failed;
    verified = List.length samples;
    correct = failed = 0 && mismatches = [] && samples <> [];
    problems;
    warmup_ops = warm_n * n_clients;
    timed_ops = n * n_clients;
    admin_ops = admin_n;
    metrics;
    layers;
    notes;
  }

let drive cfg ~collection ~shape ~deployment:d ~setup_runs =
  let traced = Option.is_some cfg.trace_dir in
  let replay_backend =
    if not traced then None
    else
      Some
        (match (cfg.kind, d.index_dir) with
        | (Mix.Mem_read | Mix.Mem_ingest), _ -> Replay.Memory (Atomic.make (Flix.build collection.coll))
        | Mix.Disk_read, Some idx ->
            Replay.Disk (Replay.open_disk ~pool_pages:(Mix.pool_pages cfg.kind) (Filename.concat idx "index"))
        | Mix.Coord_read, Some idx ->
            let plan, _ = Fx_shard.Portal_closure.load_manifest (Filename.concat idx "manifest.shards") in
            Replay.Shards
              {
                plan;
                shards =
                  Array.init (Fx_shard.Shard_plan.n_shards plan) (fun i ->
                      Replay.open_disk ~pool_pages:(Mix.pool_pages cfg.kind)
                        (Filename.concat idx (Printf.sprintf "shard%d/index" i)));
              }
        | (Mix.Disk_read | Mix.Coord_read), None -> assert false)
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Replay.close replay_backend)
    (fun () ->
      let sample_cap = (1000 + cfg.clients - 1) / cfg.clients in
      let make_client id =
        {
          id; conn = Some (connect d.entry); port = d.entry; lat = Array.make 4096 0.0; n = 0;
          ok_lat_sum = 0.0; attempted = 0; failed = 0; problems = []; samples = []; n_samples = 0;
          sample_cap;
          recorder = (if traced then Some (Spans.recorder id) else None);
          replay = Option.map Replay.thread replay_backend;
        }
      in
      let clients = List.init cfg.clients make_client in
      Fun.protect
        ~finally:(fun () -> List.iter (fun c -> Option.iter SC.close c.conn) clients)
        (fun () -> measure cfg ~collection ~shape ~deployment:d ~setup_runs ~clients ~replay_backend))

let run cfg =
  let dir = Filename.concat cfg.work (Mix.name cfg.kind) in
  rm_rf dir;
  let xml_dir = Filename.concat dir "xml" in
  mkdir_p xml_dir;
  let collection = prepare cfg ~xml_dir in
  let shape = Mix.shape collection.coll in
  (* Set up [setups] times; keep the last deployment. *)
  let rec setups i acc =
    let t0 = now () in
    match deploy cfg ~dir ~xml_dir with
    | Error e -> Error e
    | Ok d ->
        let s = ms_between t0 (now ()) /. 1000.0 in
        if i + 1 >= cfg.setups then Ok (d, List.rev (s :: acc))
        else begin
          (* Only its set-up time counts, so a clean shutdown is not
             worth waiting for. *)
          Procs.stop_all ~signal:Sys.sigkill d.procs;
          setups (i + 1) (s :: acc)
        end
  in
  match setups 0 [] with
  | Error e -> Error e
  | Ok (d, setup_runs) ->
      Fun.protect
        ~finally:(fun () -> Procs.stop_all d.procs)
        (fun () -> Ok (drive cfg ~collection ~shape ~deployment:d ~setup_runs))
