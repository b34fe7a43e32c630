module Flix = Fx_flix.Flix
module Pee = Fx_flix.Pee
module RS = Fx_flix.Result_stream
module Collection = Fx_xml.Collection
module Xml_parser = Fx_xml.Xml_parser
module Stopwatch = Fx_util.Stopwatch
module Disk_hopi = Fx_index.Disk_hopi
module Catalog = Fx_index.Catalog
module Snapshot = Fx_admin.Snapshot
module Eval_cache = Fx_admin.Eval_cache
module Delta = Fx_admin.Delta

type config = {
  host : string;
  port : int;
  workers : int;
  queue_capacity : int;
  deadline_ms : float;
  max_results : int;
  max_line_bytes : int;
  max_connections : int;
  max_batch : int;
  max_ingest_lines : int;
  eval_cache_capacity : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    workers = 4;
    queue_capacity = 64;
    deadline_ms = 2000.0;
    max_results = 10_000;
    max_line_bytes = 8192;
    max_connections = 1024;
    max_batch = 1024;
    max_ingest_lines = 65_536;
    eval_cache_capacity = 256;
  }

(* Every lock in this module is taken through this wrapper: the critical
   sections are tiny, but several of them run Hashtbl operations or
   Condition waits that can raise, and an unlocked-on-raise mutex would
   wedge the acceptor or a worker forever (FL001). *)
let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Buffered I/O straight on a connection's socket. Stdlib channels
   declare their 64 KiB buffers to the GC as out-of-heap memory, so
   opening two per connection forces minor collections at connection
   rate — and an OCaml 5 minor collection stops every domain, idle
   workers included. With short requests on a small host that cost more
   than the requests themselves. *)
module Conn_io = struct
  type input = {
    in_fd : Unix.file_descr;
    ibuf : Bytes.t;
    mutable ipos : int;
    mutable ilen : int;
  }

  type output = { out_fd : Unix.file_descr; obuf : Buffer.t }

  let input fd = { in_fd = fd; ibuf = Bytes.create 4096; ipos = 0; ilen = 0 }
  let output fd = { out_fd = fd; obuf = Buffer.create 1024 }

  (* @raise End_of_file once the peer has closed. *)
  let rec input_char ci =
    if ci.ipos < ci.ilen then begin
      let c = Bytes.get ci.ibuf ci.ipos in
      ci.ipos <- ci.ipos + 1;
      c
    end
    else
      match Unix.read ci.in_fd ci.ibuf 0 (Bytes.length ci.ibuf) with
      | 0 -> raise End_of_file
      | n ->
          ci.ipos <- 0;
          ci.ilen <- n;
          input_char ci
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> input_char ci

  let output_string co s = Buffer.add_string co.obuf s
  let output_char co c = Buffer.add_char co.obuf c

  let output_item co it =
    Protocol.add_item_line co.obuf it;
    Buffer.add_char co.obuf '\n'

  (* Write everything buffered; Unix_error (EPIPE, ECONNRESET) escapes
     to the caller: the connection loop treats it as a vanished client,
     a worker turns it into [Client_gone]. *)
  let flush co =
    let b = Buffer.to_bytes co.obuf in
    Buffer.clear co.obuf;
    let rec go off =
      if off < Bytes.length b then
        match Unix.single_write co.out_fd b off (Bytes.length b - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0
end

let write_line oc line =
  Conn_io.output_string oc line;
  Conn_io.output_char oc '\n'

let write_response oc resp =
  List.iter (write_line oc) (Protocol.response_lines resp);
  Conn_io.flush oc

(* The one handoff between a connection's thread and the workers, made
   once per connection. While a job runs the connection thread waits
   here for [finished], so the connection's output [oc] belongs to the
   worker, which writes the answer itself and then sets [finished] (and
   [client_gone] when a write found the client gone). *)
type cell = {
  oc : Conn_io.output;
  m : Mutex.t;
  c : Condition.t;
  mutable finished : bool;
  mutable client_gone : bool;
}

(* One request line's work: a single request, or every sub of a batch,
   each parsed into a request or failed at parse into the ERR it
   answers. *)
type job = {
  subs : (Protocol.request, Protocol.response) result array;
  batch : bool; (* each answer follows its [SUB i] line *)
  deadline_ns : int64;
  cell : cell;
  sw : Stopwatch.t;
}

(* A write from a worker found the client gone: the evaluation stops and
   the connection thread closes the connection. *)
exception Client_gone

type flags = { timed_out : bool; partial : bool }

type stream = { next : unit -> Protocol.item option; flags : unit -> flags }

type backend = {
  n_nodes : int;
  resolve :
    deadline_ns:int64 ->
    doc:string ->
    anchor:string option ->
    (Protocol.item option, flags) result;
  connected :
    deadline_ns:int64 -> max_dist:int option -> int -> int -> (int option, flags) result;
  descendants :
    deadline_ns:int64 -> tag:string option -> k:int -> max_dist:int option -> int -> stream;
  ancestors :
    deadline_ns:int64 -> tag:string option -> k:int -> max_dist:int option -> int -> stream;
  evaluate :
    deadline_ns:int64 ->
    start_tag:string ->
    target_tag:string ->
    k:int ->
    max_dist:int option ->
    stream;
  stats : unit -> string list;
  metric_lines : unit -> string list;
  close : unit -> unit;
  flix : Flix.t option;
}

type t = {
  cfg : config;
  snapshot : backend Snapshot.t;
  reload : (unit -> (backend, string) result) option;
  admin_m : Mutex.t; (* serializes INGEST/EVICT/RELOAD *)
  eval_cache : Protocol.item list Eval_cache.t; (* keyed and epoch-checked by [eval] *)
  reload_hist : Metrics.Histogram.t; (* flix_reload_duration_seconds *)
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics : Metrics.t;
  queue : job Work_queue.t;
  mutable workers : unit Domain.t list;
  mutable acceptor : Thread.t option;
  running : bool Atomic.t;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_lock : Mutex.t;
}

let expired deadline_ns = Stopwatch.now_ns () > deadline_ns

let no_items ?(timed_out = false) ?(partial = false) () =
  Protocol.Items { items = []; timed_out; partial }

let clean = { timed_out = false; partial = false }
let degraded (f : flags) = no_items ~timed_out:f.timed_out ~partial:f.partial ()
let empty flags = { next = (fun () -> None); flags = (fun () -> flags) }
let node_item node = { Protocol.node; dist = 0; meta = 0 }

(* --- the in-memory backend ------------------------------------------ *)

(* Tag names resolve like Flix.tag_arg: unknown tag -> the PEE's
   "match nothing" sentinel, not an error — heterogeneous collections
   routinely lack a tag. *)
let tag_arg coll = function
  | None -> None
  | Some name -> Some (Option.value ~default:(-1) (Collection.tag_id coll name))

let of_pee rs =
  {
    next =
      (fun () ->
        Option.map
          (fun (it : Pee.item) -> { Protocol.node = it.node; dist = it.dist; meta = it.meta })
          (RS.next rs));
    flags = (fun () -> clean);
  }

(* Shared immutable indexes behind a fresh PEE per request: a [Pee.t]
   is the shared index plus two counters, so one costs an allocation. *)
let memory flix =
  let coll = Flix.collection flix in
  let pee () = Pee.create (Flix.built flix) in
  {
    n_nodes = Collection.n_nodes coll;
    resolve =
      (fun ~deadline_ns:_ ~doc ~anchor ->
        Ok (Option.map node_item (Flix.node_of flix ~doc ~anchor)));
    connected =
      (fun ~deadline_ns:_ ~max_dist a b -> Ok (Pee.connected ?max_dist (pee ()) a b));
    descendants =
      (fun ~deadline_ns:_ ~tag ~k:_ ~max_dist start ->
        of_pee (Pee.descendants ?tag:(tag_arg coll tag) ?max_dist (pee ()) ~start));
    ancestors =
      (fun ~deadline_ns:_ ~tag ~k:_ ~max_dist start ->
        (* ancestors-or-self: the probed node itself counts at distance
           0 when it matches — see the protocol contract. *)
        of_pee
          (Pee.ancestors ?tag:(tag_arg coll tag) ?max_dist ~include_self:true (pee ()) ~start));
    evaluate =
      (fun ~deadline_ns:_ ~start_tag ~target_tag ~k:_ ~max_dist ->
        let starts, lo, hi = Collection.tag_slice coll start_tag in
        of_pee
          (Pee.descendants_multi_slice
             ?tag:(tag_arg coll (Some target_tag))
             ?max_dist (pee ()) ~starts ~lo ~hi));
    stats = (fun () -> String.split_on_char '\n' (Flix.report flix));
    metric_lines = (fun () -> []);
    close = ignore;
    flix = Some flix;
  }

(* --- the disk backend ----------------------------------------------- *)

let disk_report hopi catalog =
  let module P = Fx_store.Pager in
  let s = Disk_hopi.stats hopi in
  [
    "backend: disk (persistent HOPI deployment)";
    Printf.sprintf "%d nodes, %d documents, %d tag names" (Catalog.n_nodes catalog)
      (Catalog.n_docs catalog) (Catalog.n_tags catalog);
    Printf.sprintf "labels pager: %d logical reads, %d physical reads" s.P.logical_reads
      s.P.physical_reads;
  ]

(* The buffer-pool counters of the shared deployment, as extra
   Prometheus series on the METRICS endpoint. *)
let pool_metric_lines hopi () =
  let module P = Fx_store.Pager in
  let labels = Disk_hopi.stats hopi in
  let series name help v =
    Metrics.family name ~help `Counter @ [ Printf.sprintf "%s{file=\"labels\"} %d" name v ]
  in
  let stripes = Disk_hopi.stripe_stats hopi in
  let stripe_series name help kind proj =
    Metrics.family name ~help kind
    @ List.map
        (fun (s : P.stripe_stats) ->
          Printf.sprintf "%s{file=\"labels\",stripe=\"%d\"} %d" name s.P.stripe_index (proj s))
        stripes
  in
  series "flix_pager_pool_hits_total"
    "Page reads served from the buffer pool, by index file."
    (labels.P.logical_reads - labels.P.physical_reads)
  @ series "flix_pager_pool_misses_total"
      "Page reads that had to fetch from disk, by index file."
      labels.P.physical_reads
  @ stripe_series "flix_pager_stripe_lock_acquisitions_total"
      "Stripe mutex and I/O-turn acquisitions, by index file and pool stripe." `Counter
      (fun s -> s.P.lock_acquisitions)
  @ stripe_series "flix_pager_stripe_lock_contended_total"
      "Stripe lock acquisitions that had to block on another domain." `Counter
      (fun s -> s.P.lock_contended)
  @ stripe_series "flix_pager_stripe_resident_pages"
      "Pages currently held by each pool stripe." `Gauge
      (fun s -> s.P.resident_pages)
  @ stripe_series "flix_pager_stripe_capacity_pages"
      "Pool segment bound of each stripe." `Gauge
      (fun s -> s.P.capacity_pages)

let of_pairs next =
  {
    next = (fun () -> Option.map (fun (node, dist) -> { Protocol.node; dist; meta = 0 }) (next ()));
    flags = (fun () -> clean);
  }

(* Every disk tag query is a pull stream over the hop-run merge; the
   domain-safe pager lets every worker share the one handle and its
   buffer pool, and the catalog resolves names without the collection.
   EVALUATE fetches one label per start before its first item and checks
   the deadline between fetches: an expiry there yields no items, since
   a merge over only some starts could overstate a distance. *)
let disk ~hopi ~catalog =
  (* Unknown tag names match nothing, like the in-memory sentinel — and
     never reach the hop runs with a bogus id. *)
  let tag_stream query tag node =
    match Option.map (Catalog.tag_id catalog) tag with
    | Some None -> empty clean
    | resolved -> of_pairs (query node (Option.join resolved))
  in
  {
    n_nodes = Catalog.n_nodes catalog;
    resolve =
      (fun ~deadline_ns:_ ~doc ~anchor ->
        Ok (Option.map node_item (Catalog.node_of catalog ~doc ~anchor)));
    connected =
      (fun ~deadline_ns:_ ~max_dist a b ->
        Ok
          (match (Disk_hopi.distance hopi a b, max_dist) with
          | Some d, Some m when d > m -> None
          | d, _ -> d));
    descendants =
      (fun ~deadline_ns:_ ~tag ~k:_ ~max_dist ->
        tag_stream (Disk_hopi.descendants hopi ?max_dist ~strict:true) tag);
    ancestors =
      (fun ~deadline_ns:_ ~tag ~k:_ ~max_dist ->
        (* ancestors-or-self, so the node itself stays at distance 0. *)
        tag_stream (Disk_hopi.ancestors hopi ?max_dist) tag);
    evaluate =
      (fun ~deadline_ns ~start_tag ~target_tag ~k:_ ~max_dist ->
        match Catalog.tag_id catalog target_tag with
        | None -> empty clean
        | Some target -> (
            let starts =
              match Catalog.tag_id catalog start_tag with
              | None -> []
              | Some id -> Disk_hopi.nodes_by_tag hopi id
            in
            match
              Disk_hopi.descendants_of_starts hopi ?max_dist
                ~expired:(fun () -> expired deadline_ns)
                starts (Some target)
            with
            | None -> empty { clean with timed_out = true }
            | Some next -> of_pairs next));
    stats = (fun () -> disk_report hopi catalog);
    metric_lines = pool_metric_lines hopi;
    close = (fun () -> Disk_hopi.close hopi);
    flix = None;
  }

(* --- the request front ---------------------------------------------- *)

(* Sleep in short slices so the deadline can cut it off — the
   diagnostic stand-in for a long-running query. *)
let nap ~deadline_ns ms =
  let rec go remaining =
    if expired deadline_ns then no_items ~timed_out:true ()
    else if remaining <= 0 then Protocol.Ok_done
    else begin
      let slice = min remaining 5 in
      Thread.delay (float_of_int slice /. 1000.0);
      go (remaining - slice)
    end
  in
  go ms

let node_range_err n = Protocol.Err (Printf.sprintf "node id out of range [0, %d)" n)

let unknown_doc_err doc anchor =
  Protocol.Err
    (Printf.sprintf "unknown document or anchor %s%s" doc
       (match anchor with None -> "" | Some a -> "#" ^ a))

(* Where a job's ITEMs go: [emit] takes one item; [pace now] says that
   the stream is about to be pulled again, [now] being the clock reading
   the deadline check just made. *)
type sink = { emit : Protocol.item -> unit; pace : int64 -> unit }

(* Emit up to [k] items pulled from [s], checking the deadline after
   each one: a query that finds anything always returns at least its
   first item, and a zero deadline still times out deterministically.
   The stream's own flags join the trailer. *)
let stream_out ~sink ~deadline_ns ~k (s : stream) =
  let rec go n =
    if n >= k then false
    else
      match s.next () with
      | None -> false
      | Some it ->
          sink.emit it;
          let now = Stopwatch.now_ns () in
          if now > deadline_ns then true
          else begin
            if n + 1 < k then sink.pace now;
            go (n + 1)
          end
  in
  let cut = go 0 in
  let flags = s.flags () in
  no_items ~timed_out:(cut || flags.timed_out) ~partial:flags.partial ()

let cap_k cap (req : Protocol.request) =
  match req with
  | Protocol.Descendants r -> Protocol.Descendants { r with k = min r.k cap }
  | Protocol.Node_descendants r -> Protocol.Node_descendants { r with k = min r.k cap }
  | Protocol.Ancestors r -> Protocol.Ancestors { r with k = min r.k cap }
  | Protocol.Evaluate r -> Protocol.Evaluate { r with k = min r.k cap }
  | req -> req

(* The only verb dispatcher, for every backend. It caps [k] so the
   backend and the cache key both see the capped request, range-checks
   node ids, resolves DESCENDANTS names through [resolve], applies the
   queued-expiry rule, streams every answer through [stream_out], and
   runs every EVALUATE through the answer cache. A hit hands its items to
   [sink] all at once; a miss streams through a buffering [emit], and
   only a clean answer (no TIMEOUT or PARTIAL trailer) is stored, under
   the pinned [epoch] — which the cache refuses once a swap has moved
   past it. *)
let eval t (backend : backend) ~epoch ~sink ~deadline_ns req =
  let in_range v = v >= 0 && v < backend.n_nodes in
  match cap_k t.cfg.max_results req with
  | Protocol.Ping | Protocol.Metrics | Protocol.Evict _ | Protocol.Reload
  | Protocol.Epoch_query ->
      (* Answered inline on the connection thread: never pool-bound
         (see Protocol.pool_bound). *)
      Protocol.Err "internal: verb not served by the worker pool"
  | Protocol.Sleep ms -> nap ~deadline_ns ms
  | (Protocol.Stats | Protocol.Connected _ | Protocol.Resolve _) when expired deadline_ns ->
      (* The one queued-expiry rule. A job that expired while queued
         answers TIMEOUT 0 up front for the single-answer verbs rather
         than burn worker time on a full answer the deadline policy has
         already cut — under overload that work only amplifies the
         backlog. The stream verbs below keep their at-least-one-item
         guarantee through [stream_out]. *)
      no_items ~timed_out:true ()
  | Protocol.Stats -> Protocol.Lines (backend.stats ())
  | Protocol.Connected { a; b; max_dist } -> (
      if not (in_range a && in_range b) then node_range_err backend.n_nodes
      else
        match backend.connected ~deadline_ns ~max_dist a b with
        | Ok d -> Protocol.Dist d
        | Error f -> degraded f)
  | Protocol.Resolve { doc; anchor } -> (
      match backend.resolve ~deadline_ns ~doc ~anchor with
      | Ok it -> Protocol.Items { items = Option.to_list it; timed_out = false; partial = false }
      | Error f -> degraded f)
  | Protocol.Descendants { doc; anchor; tag; k; max_dist } -> (
      match backend.resolve ~deadline_ns ~doc ~anchor with
      | Ok (Some start) ->
          stream_out ~sink ~deadline_ns ~k
            (backend.descendants ~deadline_ns ~tag ~k ~max_dist start.node)
      | Ok None -> unknown_doc_err doc anchor
      | Error f -> degraded f)
  | Protocol.Node_descendants { node; tag; k; max_dist } ->
      if not (in_range node) then node_range_err backend.n_nodes
      else
        stream_out ~sink ~deadline_ns ~k (backend.descendants ~deadline_ns ~tag ~k ~max_dist node)
  | Protocol.Ancestors { node; tag; k; max_dist } ->
      if not (in_range node) then node_range_err backend.n_nodes
      else stream_out ~sink ~deadline_ns ~k (backend.ancestors ~deadline_ns ~tag ~k ~max_dist node)
  | Protocol.Evaluate { start_tag; target_tag; k; max_dist } -> (
      let key =
        { Eval_cache.start_tag; target_tag; k; max_dist = Option.value max_dist ~default:(-1) }
      in
      match Eval_cache.find t.eval_cache ~epoch key with
      | Some items ->
          List.iter sink.emit items;
          no_items ()
      | None ->
          let buf = ref [] in
          let emit it =
            buf := it :: !buf;
            sink.emit it
          in
          let resp =
            stream_out ~sink:{ sink with emit } ~deadline_ns ~k
              (backend.evaluate ~deadline_ns ~start_tag ~target_tag ~k ~max_dist)
          in
          (match resp with
          | Protocol.Items { timed_out = false; partial = false; _ } ->
              Eval_cache.store t.eval_cache ~epoch key (List.rev !buf)
          | _ -> ());
          resp)

(* Close a request's answer after its streamed ITEMs, [emitted] of
   them, are in [oc]: the response's own items and the trailer, or the
   bare response when nothing streamed. Once items went out the framing
   is committed to a stream, so a failure closes it with a PARTIAL
   trailer instead of smuggling an ERR/BUSY line into the item stream;
   the caller records the failure in the error metrics. *)
let write_answer oc ~emitted resp =
  match resp with
  | Protocol.Items { items; timed_out; partial } ->
      List.iter (Conn_io.output_item oc) items;
      write_line oc
        (Protocol.items_trailer ~count:(emitted + List.length items) ~timed_out ~partial)
  | resp when emitted = 0 -> List.iter (write_line oc) (Protocol.response_lines resp)
  | _ -> write_line oc (Protocol.items_trailer ~count:emitted ~timed_out:false ~partial:true)

let count_outcome t ~verb = function
  | Protocol.Items { timed_out = true; _ } -> Metrics.incr_timeouts t.metrics ~verb
  | Protocol.Err _ -> Metrics.incr_errors t.metrics
  | _ -> ()

(* [eval] with its failures turned into an ERR answer. *)
let run t backend ~epoch ~sink ~deadline_ns req =
  try eval t backend ~epoch ~sink ~deadline_ns req with
  | (Out_of_memory | Stack_overflow) as fatal ->
      (* Fatal resource exhaustion must not be flattened into an ERR
         line (FL004); let it take the domain down so stop/join
         surfaces it. *)
      raise fatal
  | Client_gone ->
      (* The answer's own write failed: there is no client to tell. *)
      raise Client_gone
  | exn -> Protocol.Err ("internal: " ^ Printexc.to_string exn)

let flush_answer oc = try Conn_io.flush oc with Unix.Unix_error _ -> raise Client_gone

(* The one writer of evaluated answers. It answers [job]'s subs in index
   order, each after its [SUB i] line in a batch, writing the ITEMs
   straight into the connection's output as they stream and then the
   trailer. Output is flushed at once for the job's first item, then
   once 1 ms has passed since the last flush (or since the job began,
   while nothing has been flushed) — checked before a stream is pulled
   again and between subs — and finally after the last answer: a slow
   stream reaches the client (and a merging coordinator) incrementally,
   a fast one or a batch of probes in few writes. A batch sub reached after
   the deadline answers [TIMEOUT 0] without being evaluated; a sub that
   failed at parse answers its ERR, counted then. The outcome counters
   are bumped and the duration observed before the last flush, so a
   client that has read the trailer finds its request counted. The
   snapshot is pinned once for the whole job: a swap published mid-job
   retires the old backend only after this pin (and every other) drains,
   so the job finishes on the epoch it started on.
   @raise Client_gone when a write found the client gone. *)
let answer t job =
  let oc = job.cell.oc in
  let items = ref 0 (* ITEM lines written, every sub *) in
  let last_flush = ref 0L (* none yet: the first item goes out at once *) in
  let pace now =
    if Int64.sub now !last_flush >= 1_000_000L then begin
      flush_answer oc;
      last_flush := now
    end
  in
  let sink =
    {
      emit =
        (fun it ->
          incr items;
          Conn_io.output_item oc it);
      pace;
    }
  in
  let n = Array.length job.subs in
  let epoch, backend = Snapshot.pin t.snapshot in
  Fun.protect
    ~finally:(fun () -> Snapshot.unpin t.snapshot epoch)
    (fun () ->
      for i = 0 to n - 1 do
        if job.batch then write_line oc (Protocol.sub_line i);
        let before = !items in
        let resp =
          match job.subs.(i) with
          | Error resp -> resp
          | Ok req ->
              let resp =
                if job.batch && expired job.deadline_ns then no_items ~timed_out:true ()
                else run t backend ~epoch ~sink ~deadline_ns:job.deadline_ns req
              in
              count_outcome t ~verb:(Protocol.verb req) resp;
              resp
        in
        write_answer oc ~emitted:(!items - before) resp;
        if i < n - 1 && (!last_flush <> 0L || Stopwatch.elapsed_ns job.sw >= 1_000_000L) then
          pace (Stopwatch.now_ns ())
      done;
      let verb =
        match job.subs with
        | [| Ok req |] when not job.batch -> Protocol.verb req
        | _ -> "batch"
      in
      Metrics.observe_ms t.metrics ~verb (Stopwatch.elapsed_ms job.sw);
      flush_answer oc)

let worker_loop t () =
  let rec loop () =
    match Work_queue.pop t.queue with
    | None -> ()
    | Some job ->
        let gone = match answer t job with () -> false | exception Client_gone -> true in
        let cell = job.cell in
        with_lock cell.m (fun () ->
            cell.finished <- true;
            cell.client_gone <- gone;
            Condition.signal cell.c);
        loop ()
  in
  loop ()

(* --- admin plane (connection-thread side) --------------------------- *)

(* The hot-reload plane as Prometheus series: serving epoch, per-epoch
   pin counts (draining epochs stay visible until their pins hit zero),
   swap duration histogram, and the EVALUATE cache counters that witness
   scoped invalidation keeping entries warm across swaps. *)
let snapshot_metric_lines t () =
  let family = Metrics.family in
  let counter name help v = family name ~help `Counter @ [ Printf.sprintf "%s %d" name v ] in
  let gauge name help v = family name ~help `Gauge @ [ Printf.sprintf "%s %d" name v ] in
  gauge "flix_snapshot_epoch" "Epoch of the serving snapshot." (Snapshot.epoch t.snapshot)
  @ family "flix_snapshot_pinned"
      ~help:"In-flight requests pinned to each live snapshot epoch." `Gauge
  @ List.map
      (fun (epoch, pins) -> Printf.sprintf "flix_snapshot_pinned{epoch=\"%d\"} %d" epoch pins)
      (Snapshot.pinned t.snapshot)
  @ family "flix_reload_duration_seconds"
      ~help:"Wall time of successful snapshot swaps (INGEST, EVICT, RELOAD)." `Histogram
  @ Metrics.Histogram.render t.reload_hist ~name:"flix_reload_duration_seconds" ~labels:""
  @ counter "flix_eval_cache_hits_total" "EVALUATE cache hits."
      (Eval_cache.hits t.eval_cache)
  @ counter "flix_eval_cache_misses_total" "EVALUATE cache misses."
      (Eval_cache.misses t.eval_cache)
  @ counter "flix_eval_cache_invalidated_total"
      "EVALUATE cache entries dropped by swap invalidation."
      (Eval_cache.invalidated t.eval_cache)
  @ gauge "flix_eval_cache_entries" "Resident EVALUATE cache entries."
      (Eval_cache.length t.eval_cache)

(* The process's OCaml heap, from [Gc.quick_stat]: what a deployment's
   RSS holds in its major heap, and how often the collector ran. *)
let gc_metric_lines () =
  let family = Metrics.family in
  let s = Gc.quick_stat () in
  let gauge name help v = family name ~help `Gauge @ [ Printf.sprintf "%s %d" name v ] in
  let counter name help v = family name ~help `Counter @ [ Printf.sprintf "%s %d" name v ] in
  gauge "flix_gc_heap_words" "Words in the OCaml major heap." s.Gc.heap_words
  @ gauge "flix_gc_top_heap_words" "Largest size of the OCaml major heap, in words."
      s.Gc.top_heap_words
  @ counter "flix_gc_minor_collections_total" "Minor collections since the process started."
      s.Gc.minor_collections
  @ counter "flix_gc_major_collections_total" "Major collection cycles since the process started."
      s.Gc.major_collections

(* Publish [next] as the serving snapshot, moving the answer cache to
   the new epoch first: entries the delta cannot affect stay warm,
   everything else is dropped. Runs under the admin lock, so the epoch
   arithmetic cannot race another swap; a worker still pinned to the old
   epoch can neither read nor store across it (see Eval_cache). *)
let publish_swap t ~scope next =
  Eval_cache.swap t.eval_cache ~epoch:(Snapshot.epoch t.snapshot + 1) scope;
  Snapshot.publish t.snapshot next

(* Run one admin mutation under the admin lock, timing successful swaps
   into the reload histogram. *)
let admin_op t f =
  with_lock t.admin_m (fun () ->
      let sw = Stopwatch.start () in
      let resp =
        try f () with
        | (Out_of_memory | Stack_overflow) as fatal -> raise fatal
        | exn -> Protocol.Err ("internal: " ^ Printexc.to_string exn)
      in
      (match resp with
      | Protocol.Epoch _ ->
          Metrics.Histogram.observe t.reload_hist (Stopwatch.elapsed_ms sw /. 1000.0)
      | _ -> ());
      resp)

let apply_ingest t (docs : Fx_xml.Xml_types.document list) =
  admin_op t (fun () ->
      match (Snapshot.current t.snapshot).flix with
      | None -> Protocol.Err "INGEST requires the in-memory backend (use RELOAD)"
      | Some flix -> (
          let coll = Flix.collection flix in
          let seen = Hashtbl.create 8 in
          let clash =
            List.find_opt
              (fun (d : Fx_xml.Xml_types.document) ->
                let dup =
                  Hashtbl.mem seen d.name
                  || Option.is_some (Collection.doc_of_name coll d.name)
                in
                Hashtbl.replace seen d.name ();
                dup)
              docs
          in
          match clash with
          | Some d ->
              Protocol.Err
                (Printf.sprintf "document %s already exists in the collection" d.name)
          | None ->
              let old_n = Collection.n_nodes coll in
              let next = Flix.extend flix docs in
              let scope =
                Delta.extend_scope ~old_n_nodes:old_n (Flix.collection next)
              in
              Protocol.Epoch (publish_swap t ~scope (memory next))))

let apply_evict t names =
  admin_op t (fun () ->
      match (Snapshot.current t.snapshot).flix with
      | None -> Protocol.Err "EVICT requires the in-memory backend"
      | Some flix -> (
          let coll = Flix.collection flix in
          match
            List.find_opt
              (fun name -> Option.is_none (Collection.doc_of_name coll name))
              names
          with
          | Some name -> Protocol.Err (Printf.sprintf "unknown document %s" name)
          | None ->
              let next = Flix.remove flix names in
              (* Node ids shift after the first removed document, so no
                 tag-scoped survival argument holds: flush everything. *)
              Protocol.Epoch (publish_swap t ~scope:Delta.All (memory next))))

let apply_reload t =
  match t.reload with
  | None -> Protocol.Err "RELOAD is not configured for this server"
  | Some reload ->
      admin_op t (fun () ->
          match reload () with
          | Error msg -> Protocol.Err ("reload failed: " ^ msg)
          | Ok next -> Protocol.Epoch (publish_swap t ~scope:Delta.All next))

(* --- connection handling (thread side) ------------------------------ *)

(* Wait until the worker has written the job's answer.
   @raise Client_gone when one of its writes found the client gone. *)
let await_answer cell =
  let gone =
    with_lock cell.m (fun () ->
        while not cell.finished do
          Condition.wait cell.c cell.m
        done;
        cell.finished <- false;
        cell.client_gone)
  in
  if gone then raise Client_gone

let handle_request t cell line =
  let oc = cell.oc in
  match Protocol.parse_envelope line with
  | Error msg ->
      Metrics.incr_errors t.metrics;
      write_response oc (Protocol.Err msg)
  | Ok { deadline_ms; req } ->
      let verb = Protocol.verb req in
      Metrics.incr_requests t.metrics ~verb;
      let sw = Stopwatch.start () in
      if not (Protocol.pool_bound req) then begin
        (* Inline plane: PING and METRICS must work on a saturated
           server, and the admin verbs run on the connection thread
           under the admin lock instead of occupying a worker. *)
        let resp =
          match req with
          | Protocol.Ping -> Protocol.Pong
          | Protocol.Metrics -> Protocol.Lines (Metrics.render t.metrics)
          | Protocol.Epoch_query -> Protocol.Epoch (Snapshot.epoch t.snapshot)
          | Protocol.Evict names -> apply_evict t names
          | Protocol.Reload -> apply_reload t
          | _ -> assert false
        in
        (match resp with
        | Protocol.Err _ -> Metrics.incr_errors t.metrics
        | _ -> ());
        write_response oc resp;
        Metrics.observe_ms t.metrics ~verb (Stopwatch.elapsed_ms sw)
      end
      else begin
        let budget_ms =
          match deadline_ms with
          | Some ms -> float_of_int ms
          | None -> t.cfg.deadline_ms
        in
        let deadline_ns =
          Int64.add (Stopwatch.now_ns ()) (Int64.of_float (budget_ms *. 1e6))
        in
        let job = { subs = [| Ok req |]; batch = false; deadline_ns; cell; sw } in
        if Work_queue.try_push t.queue job then await_answer cell
        else begin
          Metrics.incr_rejected t.metrics;
          write_response oc Protocol.Busy
        end
      end

(* --- batches -------------------------------------------------------- *)

(* Count the batch and each sub-request line, parsed into a request or
   failed into the ERR it answers, then queue the batch as one job. It
   was counted as one request, so a full queue means backpressure —
   short polls — until the deadline, never BUSY: a batch may be larger
   than the queue. A batch still unqueued at the deadline is answered
   here, with nothing evaluated: every sub answers TIMEOUT 0 or its
   ERR. *)
let handle_batch t cell ~deadline_ms lines =
  Metrics.incr_requests t.metrics ~verb:"batch";
  let sw = Stopwatch.start () in
  let budget_ms =
    match deadline_ms with Some ms -> float_of_int ms | None -> t.cfg.deadline_ms
  in
  let deadline_ns = Int64.add (Stopwatch.now_ns ()) (Int64.of_float (budget_ms *. 1e6)) in
  let subs =
    Array.map
      (fun line ->
        let fail msg =
          Metrics.incr_errors t.metrics;
          Error (Protocol.Err msg)
        in
        match Result.bind line Protocol.parse_request with
        | Error msg -> fail msg
        | Ok req when not (Protocol.batch_allowed req) ->
            fail
              (Printf.sprintf "verb %s not allowed in a batch"
                 (String.uppercase_ascii (Protocol.verb req)))
        | Ok req ->
            Metrics.incr_requests t.metrics ~verb:(Protocol.verb req);
            Ok req)
      lines
  in
  let job = { subs; batch = true; deadline_ns; cell; sw } in
  let rec admit () =
    if expired deadline_ns then answer t job
    else if Work_queue.try_push t.queue job then await_answer cell
    else begin
      Thread.delay 0.002;
      admit ()
    end
  in
  admit ()

(* Read one request line while buffering at most [max_bytes]: a client
   cannot exhaust memory by streaming an endless line (input_line would
   buffer it whole). Past the cap the rest of the line is read and
   discarded so the framing stays intact and the connection survives
   with an ERR, like any other malformed request. *)
let read_request_line ic ~max_bytes =
  let buf = Buffer.create 128 in
  let rec go overflowed =
    match Conn_io.input_char ic with
    | '\n' -> if overflowed then `Overflow else `Line (Buffer.contents buf)
    | c ->
        if overflowed || Buffer.length buf >= max_bytes then go true
        else begin
          Buffer.add_char buf c;
          go false
        end
    | exception End_of_file ->
        if overflowed then `Overflow
        else if Buffer.length buf = 0 then `Eof
        else `Line (Buffer.contents buf)
  in
  go false

let conn_loop t fd =
  let ic = Conn_io.input fd in
  let oc = Conn_io.output fd in
  let cell =
    {
      oc;
      m = Mutex.create ();
      c = Condition.create ();
      finished = false;
      client_gone = false;
    }
  in
  let cleanup () =
    with_lock t.conns_lock (fun () -> Hashtbl.remove t.conns fd);
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  (* Pull the [n] sub-request lines of a batch. An oversized line fails
     only its slot; a vanished client aborts the whole batch (there is
     nowhere to answer). *)
  let read_batch_lines n =
    let lines = Array.make n (Error "missing sub-request") in
    let rec go i =
      if i >= n then Some lines
      else
        match read_request_line ic ~max_bytes:t.cfg.max_line_bytes with
        | `Eof -> None
        | `Overflow ->
            lines.(i) <-
              Error
                (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_line_bytes);
            go (i + 1)
        | `Line line ->
            lines.(i) <- Ok line;
            go (i + 1)
    in
    go 0
  in
  (* An over-cap batch still consumes its announced sub-request lines so
     the connection framing survives the single ERR answer. *)
  let discard_batch_lines n =
    let rec go i =
      if i >= n then true
      else
        match read_request_line ic ~max_bytes:t.cfg.max_line_bytes with
        | `Eof -> false
        | `Overflow | `Line _ -> go (i + 1)
    in
    go 0
  in
  (* Pull the [n] document frames of an ingest envelope. A recoverable
     failure (oversized document, bad XML caught later) still consumes
     the whole envelope so a single ERR keeps the framing intact; a
     malformed or oversized [DOC] header loses the framing — there is no
     way to know how many lines follow — so the caller answers ERR and
     closes. [keep = false] consumes without accumulating (over-cap
     envelopes). *)
  let read_ingest_frames ~keep n =
    let fail = ref None in
    let note msg = if Option.is_none !fail then fail := Some msg in
    let rec read_body name j acc =
      if j = 0 then Some (List.rev acc)
      else
        match read_request_line ic ~max_bytes:t.cfg.max_line_bytes with
        | `Eof -> None
        | `Overflow ->
            note
              (Printf.sprintf "document %s: line exceeds %d bytes" name
                 t.cfg.max_line_bytes);
            read_body name (j - 1) acc
        | `Line l -> read_body name (j - 1) (if keep then l :: acc else acc)
    in
    let rec go i acc =
      if i >= n then
        match !fail with Some msg -> `Fail msg | None -> `Docs (List.rev acc)
      else
        match read_request_line ic ~max_bytes:t.cfg.max_line_bytes with
        | `Eof -> `Eof
        | `Overflow ->
            `Abort
              (Printf.sprintf "DOC header exceeds %d bytes" t.cfg.max_line_bytes)
        | `Line l -> (
            match Protocol.parse_doc_line l with
            | Error msg -> `Abort msg
            | Ok (name, n_lines) ->
                if n_lines > t.cfg.max_ingest_lines then begin
                  note
                    (Printf.sprintf "document %s: %d lines exceeds cap %d" name
                       n_lines t.cfg.max_ingest_lines);
                  match read_body name n_lines [] with
                  | None -> `Eof
                  | Some _ -> go (i + 1) acc
                end
                else
                  match read_body name n_lines [] with
                  | None -> `Eof
                  | Some lines ->
                      go (i + 1) ((name, String.concat "\n" lines) :: acc))
    in
    go 0 []
  in
  (* Parse every framed document body; the first bad one fails the whole
     envelope (the swap is all-or-nothing anyway). *)
  let parse_ingest_docs raw =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, body) :: rest -> (
          match Xml_parser.parse ~name body with
          | Ok doc -> go (doc :: acc) rest
          | Error e ->
              Error
                (Printf.sprintf "document %s: %s" name
                   (Xml_parser.error_to_string e)))
    in
    go [] raw
  in
  let handle_ingest n loop =
    Metrics.incr_requests t.metrics ~verb:"ingest";
    let sw = Stopwatch.start () in
    if n > t.cfg.max_batch then begin
      Metrics.incr_errors t.metrics;
      match read_ingest_frames ~keep:false n with
      | `Eof -> ()
      | `Abort msg -> write_response oc (Protocol.Err msg)
      | `Fail _ | `Docs _ ->
          write_response oc
            (Protocol.Err (Printf.sprintf "ingest size exceeds %d" t.cfg.max_batch));
          loop ()
    end
    else
      match read_ingest_frames ~keep:true n with
      | `Eof -> ()
      | `Abort msg ->
          Metrics.incr_errors t.metrics;
          write_response oc (Protocol.Err msg)
      | `Fail msg ->
          Metrics.incr_errors t.metrics;
          write_response oc (Protocol.Err msg);
          loop ()
      | `Docs raw -> (
          match parse_ingest_docs raw with
          | Error msg ->
              Metrics.incr_errors t.metrics;
              write_response oc (Protocol.Err msg);
              loop ()
          | Ok docs ->
              let resp = apply_ingest t docs in
              (match resp with
              | Protocol.Err _ -> Metrics.incr_errors t.metrics
              | _ -> ());
              write_response oc resp;
              Metrics.observe_ms t.metrics ~verb:"ingest" (Stopwatch.elapsed_ms sw);
              loop ())
  in
  let serve () =
    let rec loop () =
      match read_request_line ic ~max_bytes:t.cfg.max_line_bytes with
      | `Eof -> ()
      | `Overflow ->
          Metrics.incr_errors t.metrics;
          write_response oc
            (Protocol.Err
               (Printf.sprintf "request line exceeds %d bytes"
                  t.cfg.max_line_bytes));
          loop ()
      | `Line line -> (
          match Protocol.parse_framed line with
          | Ok (Protocol.Batch { deadline_ms; n }) when n <= t.cfg.max_batch -> (
              match read_batch_lines n with
              | None -> ()
              | Some lines ->
                  handle_batch t cell ~deadline_ms lines;
                  loop ())
          | Ok (Protocol.Batch { n; _ }) ->
              Metrics.incr_errors t.metrics;
              if discard_batch_lines n then begin
                write_response oc
                  (Protocol.Err
                     (Printf.sprintf "batch size exceeds %d" t.cfg.max_batch));
                loop ()
              end
          | Ok (Protocol.Ingest { n }) -> handle_ingest n loop
          | Ok (Protocol.Single _) | Error _ ->
              (* [handle_request] re-parses and owns the ERR answer for
                 malformed lines. *)
              handle_request t cell line;
              loop ())
    in
    (* The try must wrap the whole loop body, not just the read: with
       SIGPIPE ignored, a client that vanishes mid-response surfaces as
       EPIPE/ECONNRESET (Unix_error) from write_response's flush, or as
       Client_gone when a worker's write met it, and that too must fall
       through to cleanup, not escape the thread. *)
    try loop () with End_of_file | Sys_error _ | Unix.Unix_error _ | Client_gone -> ()
  in
  Fun.protect ~finally:cleanup serve

(* Acceptor-side admission: threads and fds are one-per-connection, so
   without a cap a client herd could exhaust both even though the work
   queue itself is bounded. *)
let over_conn_cap t =
  let n = with_lock t.conns_lock (fun () -> Hashtbl.length t.conns) in
  n >= t.cfg.max_connections

(* A worker writes its answer on the connection's socket, so a client
   that stops reading must not hold that worker forever: a write that
   makes no progress for this long fails, and the connection closes. *)
let send_timeout_s = 10.0

let reject_connection fd =
  let busy = Bytes.of_string "BUSY\n" in
  (try ignore (Unix.write fd busy 0 (Bytes.length busy))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if over_conn_cap t then begin
          Metrics.incr_rejected t.metrics;
          reject_connection fd;
          loop ()
        end
        else begin
          (try
             Unix.setsockopt fd Unix.TCP_NODELAY true;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
           with Unix.Unix_error _ -> ());
          with_lock t.conns_lock (fun () -> Hashtbl.replace t.conns fd ());
          ignore (Thread.create (conn_loop t) fd);
          loop ()
        end
    | exception Unix.Unix_error (err, _, _) ->
        if Atomic.get t.running then begin
          (* EINTR is benign; under fd exhaustion (EMFILE/ENFILE) accept
             fails persistently, so back off instead of busy-spinning at
             100% CPU until connections drain. *)
          (match err with
          | Unix.EINTR -> ()
          | Unix.EMFILE | Unix.ENFILE -> Thread.delay 0.05
          | _ -> Thread.delay 0.01);
          loop ()
        end
    | exception Sys_error _ -> ()
  in
  loop ()

(* --- lifecycle ------------------------------------------------------ *)

let start_backend ?(config = default_config) ?reload backend =
  (* A client that closes before its response is fully written must
     surface as EPIPE on the write — the default SIGPIPE disposition
     would terminate the whole process. Invalid_argument covers
     platforms without SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind listen_fd addr
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd 64;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  (* A replaced backend is closed once its last pinned request drains. *)
  let snapshot = Snapshot.create ~retire:(fun b -> b.close ()) backend in
  let t =
    {
      cfg = config;
      snapshot;
      reload;
      admin_m = Mutex.create ();
      eval_cache =
        Eval_cache.create ~capacity:config.eval_cache_capacity
          ~epoch:(Snapshot.epoch snapshot);
      reload_hist = Metrics.Histogram.create [| 0.001; 0.005; 0.025; 0.1; 0.5; 2.0; 10.0 |];
      listen_fd;
      bound_port;
      metrics = Metrics.create ();
      queue = Work_queue.create ~capacity:config.queue_capacity;
      workers = [];
      acceptor = None;
      running = Atomic.make true;
      conns = Hashtbl.create 16;
      conns_lock = Mutex.create ();
    }
  in
  (* The backend's own series, read from a pinned snapshot: a swap may
     close the backend it replaced, so a scrape must read whichever
     backend is current and keep it open while it reads. *)
  Metrics.register_collector t.metrics (fun () ->
      let epoch, b = Snapshot.pin t.snapshot in
      Fun.protect ~finally:(fun () -> Snapshot.unpin t.snapshot epoch) b.metric_lines);
  Metrics.register_collector t.metrics (snapshot_metric_lines t);
  Metrics.register_collector t.metrics gc_metric_lines;
  t.workers <- List.init (max 1 config.workers) (fun _ -> Domain.spawn (worker_loop t));
  t.acceptor <- Some (Thread.create (accept_loop t) ());
  t

let start ?config flix = start_backend ?config (memory flix)

let port t = t.bound_port
let metrics t = t.metrics
let current_backend t = Snapshot.current t.snapshot
let epoch t = Snapshot.epoch t.snapshot

let stop t =
  if Atomic.compare_and_set t.running true false then begin
    (* No new connections or jobs; queued jobs still get answered. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Work_queue.close t.queue;
    List.iter Domain.join t.workers;
    t.workers <- [];
    (match t.acceptor with Some th -> Thread.join th | None -> ());
    t.acceptor <- None;
    let fds =
      with_lock t.conns_lock (fun () ->
          Hashtbl.fold (fun fd () acc -> fd :: acc) t.conns [])
    in
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      fds
  end
