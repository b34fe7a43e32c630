(* The query-service subsystem: wire protocol round-trips, the bounded
   work queue, metrics accounting, and a live server driven by
   concurrent clients — results cross-checked byte-for-byte against
   direct Flix calls, with deterministic BUSY and TIMEOUT provocation. *)

module P = Fx_server.Protocol
module Metrics = Fx_server.Metrics
module WQ = Fx_server.Work_queue
module Server = Fx_server.Server
module Client = Fx_server.Server_client
module Flix = Fx_flix.Flix
module Pee = Fx_flix.Pee
module RS = Fx_flix.Result_stream
module Dblp = Fx_workload.Dblp_gen

(* --- protocol ------------------------------------------------------- *)

let sample_requests =
  [
    P.Ping;
    P.Stats;
    P.Metrics;
    P.Sleep 250;
    P.Descendants { doc = "dblp_0001"; anchor = None; tag = None; k = 10; max_dist = None };
    P.Descendants
      {
        doc = "dblp_0002";
        anchor = Some "sec3";
        tag = Some "author";
        k = 5;
        max_dist = Some 4;
      };
    P.Connected { a = 3; b = 99; max_dist = None };
    P.Connected { a = 0; b = 1; max_dist = Some 7 };
    P.Evaluate { start_tag = "inproceedings"; target_tag = "author"; k = 3; max_dist = None };
    P.Evaluate { start_tag = "article"; target_tag = "cite"; k = 100; max_dist = Some 2 };
  ]

let request_roundtrip () =
  List.iter
    (fun r ->
      match P.parse_request (P.request_line r) with
      | Ok r' -> Alcotest.(check bool) (P.request_line r) true (r = r')
      | Error e -> Alcotest.failf "%s failed to parse: %s" (P.request_line r) e)
    sample_requests

let request_case_and_whitespace () =
  Alcotest.(check bool) "lower-case verb" true (P.parse_request "ping" = Ok P.Ping);
  Alcotest.(check bool) "padded" true
    (P.parse_request "  CONNECTED  1   2 " = Ok (P.Connected { a = 1; b = 2; max_dist = None }))

let malformed_requests () =
  List.iter
    (fun line ->
      match P.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" line)
    [
      "";
      "   ";
      "FROBNICATE";
      "PING extra";
      "SLEEP";
      "SLEEP abc";
      "SLEEP -1";
      "DESCENDANTS onlydoc";
      "DESCENDANTS d - - 0";          (* k must be positive *)
      "DESCENDANTS d - - ten";
      "DESCENDANTS d - - 5 -1";       (* negative max_dist *)
      "DESCENDANTS d - - 5 3 junk";
      "CONNECTED 1";
      "CONNECTED a b";
      "EVALUATE a b";
    ]

let feeder lines =
  let rest = ref lines in
  fun () ->
    match !rest with
    | [] -> None
    | l :: tl ->
        rest := tl;
        Some l

let response_roundtrip () =
  let samples =
    [
      P.Pong;
      P.Ok_done;
      P.Busy;
      P.Err "unknown verb \"FROB\"";
      P.Dist None;
      P.Dist (Some 4);
      P.Items { items = []; timed_out = false; partial = false };
      P.Items { items = []; timed_out = true; partial = false };
      P.Items { items = []; timed_out = false; partial = true };
      P.Items
        {
          items = [ { P.node = 1; dist = 0; meta = 2 }; { P.node = 9; dist = 3; meta = 0 } ];
          timed_out = false;
          partial = false;
        };
      P.Items
        {
          items = [ { P.node = 4; dist = 1; meta = 0 } ];
          timed_out = false;
          partial = true;
        };
      P.Lines [];
      P.Lines [ "a b c"; ""; "# comment" ];
    ]
  in
  List.iter
    (fun r ->
      match P.read_response (feeder (P.response_lines r)) with
      | Ok r' -> Alcotest.(check bool) (String.concat "|" (P.response_lines r)) true (r = r')
      | Error e -> Alcotest.failf "response failed to re-read: %s" e)
    samples

(* ITEM lines are rendered digit by digit; the bytes must be Printf's,
   negative and extreme values included. *)
let item_line_is_printf =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"ITEM line = Printf rendering"
       QCheck.(
         triple
           (oneof [ int; small_nat; oneofl [ 0; 9; 10; -1; max_int; min_int ] ])
           small_signed_int int)
       (fun (node, dist, meta) ->
         P.item_line { P.node; dist; meta } = Printf.sprintf "ITEM %d %d %d" node dist meta))

let truncated_response () =
  (match P.read_response (feeder [ "ITEM 1 2 3" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "item stream without trailer should error");
  (match P.read_response (feeder [ "LINES 3"; "only one" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short LINES payload should error");
  match P.read_response (feeder [ "ITEM 1 2 3"; "DONE 7" ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailer count mismatch should error"

(* --- work queue ----------------------------------------------------- *)

let queue_bounds () =
  let q = WQ.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (WQ.try_push q 1);
  Alcotest.(check bool) "push 2" true (WQ.try_push q 2);
  Alcotest.(check bool) "full" false (WQ.try_push q 3);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (WQ.pop q);
  Alcotest.(check bool) "room again" true (WQ.try_push q 4);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (WQ.pop q);
  Alcotest.(check (option int)) "fifo 4" (Some 4) (WQ.pop q);
  WQ.close q;
  Alcotest.(check bool) "closed rejects" false (WQ.try_push q 5);
  Alcotest.(check (option int)) "closed drained" None (WQ.pop q)

let queue_cross_domain () =
  let q = WQ.create ~capacity:64 in
  let seen = Atomic.make 0 in
  let consumers =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let rec go acc =
              match WQ.pop q with
              | None -> acc
              | Some x -> go (acc + x)
            in
            let s = go 0 in
            ignore (Atomic.fetch_and_add seen s)))
  in
  for i = 1 to 200 do
    while not (WQ.try_push q i) do
      Thread.yield ()
    done
  done;
  WQ.close q;
  List.iter Domain.join consumers;
  Alcotest.(check int) "all delivered exactly once" (200 * 201 / 2) (Atomic.get seen)

(* --- metrics -------------------------------------------------------- *)

let metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr_requests m ~verb:"descendants";
  Metrics.incr_requests m ~verb:"descendants";
  Metrics.incr_requests m ~verb:"nonsense";
  Metrics.incr_rejected m;
  Metrics.incr_timeouts m ~verb:"sleep";
  Metrics.observe_ms m ~verb:"descendants" 0.3;
  Metrics.observe_ms m ~verb:"descendants" 40.0;
  Metrics.observe_ms m ~verb:"descendants" 99999.0;
  Alcotest.(check int) "requests" 2 (Metrics.requests_total m ~verb:"descendants");
  Alcotest.(check int) "other fold" 1 (Metrics.requests_total m ~verb:"nonsense");
  Alcotest.(check int) "rejected" 1 (Metrics.rejected_total m);
  Alcotest.(check int) "timeouts" 1 (Metrics.timeouts_total m ~verb:"sleep");
  Alcotest.(check int) "observations" 3 (Metrics.observations m ~verb:"descendants");
  let text = String.concat "\n" (Metrics.render m) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring.String.is_infix ~affix:needle text))
    [
      "flix_requests_total{verb=\"descendants\"} 2";
      "flix_rejected_total 1";
      "flix_timeouts_total{verb=\"sleep\"} 1";
      (* 0.3 ms lands in le=0.5; cumulative buckets include it upward. *)
      "flix_request_duration_ms_bucket{verb=\"descendants\",le=\"0.5\"} 1";
      "flix_request_duration_ms_bucket{verb=\"descendants\",le=\"50\"} 2";
      (* the +Inf bucket equals the observation count *)
      "flix_request_duration_ms_bucket{verb=\"descendants\",le=\"+Inf\"} 3";
      "flix_request_duration_ms_count{verb=\"descendants\"} 3";
    ]

(* The one histogram behind every METRICS series: bucket edges, the
   cumulative render, the sum's scale per kind, and exact counts under
   concurrent observers. *)
let metrics_histogram () =
  let module H = Metrics.Histogram in
  let value lines series =
    match
      List.find_map
        (fun l ->
          match Astring.String.cut ~rev:true ~sep:" " l with
          | Some (s, v) when s = series -> Some v
          | _ -> None)
        lines
    with
    | Some v -> v
    | None -> Alcotest.failf "no series %s" series
  in
  let ms = H.create [| 0.1; 0.25; 1.0 |] in
  List.iter (H.observe ms) [ 0.25; 0.05; 2.5 ];
  let lines = H.render ms ~name:"x_ms" ~labels:"verb=\"ping\"" in
  List.iter
    (fun (series, want) -> Alcotest.(check string) series want (value lines series))
    [
      (* a sample equal to a bound lands in that bucket *)
      ("x_ms_bucket{verb=\"ping\",le=\"0.1\"}", "1");
      ("x_ms_bucket{verb=\"ping\",le=\"0.25\"}", "2");
      ("x_ms_bucket{verb=\"ping\",le=\"1\"}", "2");
      ("x_ms_bucket{verb=\"ping\",le=\"+Inf\"}", "3");
      ("x_ms_sum{verb=\"ping\"}", "2.800000");
      ("x_ms_count{verb=\"ping\"}", "3");
    ];
  Alcotest.(check int) "count" 3 (H.count ms);
  let seconds = H.create [| 0.001; 2.0 |] in
  List.iter (H.observe seconds) [ 0.001; 1.5 ];
  let lines = H.render seconds ~name:"x_seconds" ~labels:"" in
  Alcotest.(check string) "seconds sum" "1.501000" (value lines "x_seconds_sum");
  Alcotest.(check string) "integral bound" "2" (value lines "x_seconds_bucket{le=\"2\"}");
  let sizes = H.create_count [| 1; 4 |] in
  List.iter (fun n -> H.observe sizes (float_of_int n)) [ 1; 3; 4; 700 ];
  let lines = H.render sizes ~name:"x_size" ~labels:"" in
  Alcotest.(check string) "count sum is whole" "708" (value lines "x_size_sum");
  Alcotest.(check string) "le=4" "3" (value lines "x_size_bucket{le=\"4\"}");
  Alcotest.(check string) "+Inf = count" (value lines "x_size_count")
    (value lines "x_size_bucket{le=\"+Inf\"}");
  (* Lock-free observers on four domains lose no sample. *)
  let shared = H.create [| 0.5; 1.0 |] in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to 10_000 do
              H.observe shared (float_of_int ((i + d) mod 3) /. 2.0)
            done))
  in
  List.iter Domain.join domains;
  let lines = H.render shared ~name:"x" ~labels:"" in
  Alcotest.(check int) "exact count" 40_000 (H.count shared);
  Alcotest.(check string) "+Inf bucket" "40000" (value lines "x_bucket{le=\"+Inf\"}");
  Alcotest.(check string) "le=1" "40000" (value lines "x_bucket{le=\"1\"}");
  let at_most_half = ref 0 in
  for d = 0 to 3 do
    for i = 1 to 10_000 do
      if (i + d) mod 3 < 2 then incr at_most_half
    done
  done;
  Alcotest.(check string) "le=0.5" (string_of_int !at_most_half)
    (value lines "x_bucket{le=\"0.5\"}")

(* --- live server ---------------------------------------------------- *)

let shared_collection = lazy (Dblp.collection { Dblp.default with n_docs = 200; seed = 5 })
let shared_flix = lazy (Flix.build (Lazy.force shared_collection))

let with_server ?config f =
  let server = Server.start ?config (Lazy.force shared_flix) in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let render resp = String.concat "\n" (P.response_lines resp)

(* What the server must answer for DESCENDANTS <doc> - <tag> <k>,
   computed with a direct Flix call. *)
let direct_descendants flix ~doc ~tag ~k =
  match Flix.node_of flix ~doc ~anchor:None with
  | None -> Alcotest.failf "test bug: unknown doc %s" doc
  | Some start ->
      let items =
        Flix.descendants ~tag flix ~start
        |> RS.take k
        |> List.map (fun (it : Pee.item) ->
               { P.node = it.node; dist = it.dist; meta = it.meta })
      in
      render (P.Items { items; timed_out = false; partial = false })

let ping_and_errors () =
  with_server (fun server ->
      let port = Server.port server in
      let c = Client.connect ~port () in
      Alcotest.(check bool) "ping" true (Client.ping c);
      (* A malformed line must yield ERR, not kill the connection. *)
      (match Client.request c P.Ping with Ok P.Pong -> () | _ -> Alcotest.fail "ping 2");
      (match
         Client.descendants c ~doc:"no_such_doc" ~k:3 ()
       with
      | Ok (Client.Server_error _) -> ()
      | other ->
          Alcotest.failf "unknown doc should be a server error, got %s"
            (match other with
            | Ok (Client.Value _) -> "items"
            | Ok Client.Busy -> "busy"
            | Error e -> "transport error: " ^ e
            | Ok (Client.Server_error _) -> assert false));
      Alcotest.(check bool) "alive after ERR" true (Client.ping c);
      let m = Server.metrics server in
      Alcotest.(check bool) "errors counted" true (Metrics.errors_total m >= 1);
      Client.close c)

let raw_malformed_lines () =
  with_server (fun server ->
      let port = Server.port server in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.iter
        (fun junk ->
          output_string oc (junk ^ "\n");
          flush oc;
          let reply = input_line ic in
          Alcotest.(check bool)
            (Printf.sprintf "%S -> ERR" junk)
            true
            (String.length reply >= 3 && String.sub reply 0 3 = "ERR"))
        [ "FROBNICATE"; "DESCENDANTS"; "CONNECTED one two"; "SLEEP -5"; "" ];
      (* The connection and server both survive the abuse. *)
      output_string oc "PING\n";
      flush oc;
      Alcotest.(check string) "still serving" "PONG" (input_line ic);
      (* A line split across packets, then two lines in one. *)
      output_string oc "PI";
      flush oc;
      Thread.delay 0.02;
      output_string oc "NG\nPING\n";
      flush oc;
      Alcotest.(check string) "fragmented line" "PONG" (input_line ic);
      Alcotest.(check string) "pipelined line" "PONG" (input_line ic);
      Unix.close fd)

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let oversized_line () =
  with_server
    ~config:{ Server.default_config with max_line_bytes = 64 }
    (fun server ->
      let port = Server.port server in
      let fd = raw_connect port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      (* Far past the cap: the server must answer ERR without buffering
         the whole line, and the connection must keep its framing. *)
      output_string oc (String.make 100_000 'A');
      output_string oc "\nPING\n";
      flush oc;
      let reply = input_line ic in
      Alcotest.(check bool) "overflow -> ERR" true
        (String.length reply >= 3 && String.sub reply 0 3 = "ERR");
      Alcotest.(check string) "framing survives overflow" "PONG" (input_line ic);
      Unix.close fd;
      Alcotest.(check bool) "overflow counted as error" true
        (Metrics.errors_total (Server.metrics server) >= 1))

let connection_cap () =
  with_server
    ~config:{ Server.default_config with max_connections = 1 }
    (fun server ->
      let port = Server.port server in
      let c1 = Client.connect ~port () in
      (* The ping round-trip guarantees the acceptor registered c1. *)
      Alcotest.(check bool) "first client served" true (Client.ping c1);
      let fd = raw_connect port in
      let ic = Unix.in_channel_of_descr fd in
      Alcotest.(check string) "over cap -> BUSY" "BUSY" (input_line ic);
      (match input_line ic with
      | exception End_of_file -> ()
      | line -> Alcotest.failf "rejected connection should close, got %S" line);
      Unix.close fd;
      Alcotest.(check bool) "cap rejection counted" true
        (Metrics.rejected_total (Server.metrics server) >= 1);
      Client.close c1;
      (* Once c1's slot frees (its thread notices EOF asynchronously),
         new connections are admitted again. *)
      let rec retry n =
        if n = 0 then Alcotest.fail "connection slot never freed"
        else
          let c = Client.connect ~port () in
          let ok = Client.ping c in
          Client.close c;
          if not ok then begin
            Thread.delay 0.02;
            retry (n - 1)
          end
      in
      retry 100)

let disconnect_mid_response () =
  (* Clients that send a streaming request and vanish before reading
     the reply: each write then hits EPIPE/ECONNRESET. With SIGPIPE
     ignored this must close just that connection, not the process. *)
  with_server (fun server ->
      let port = Server.port server in
      for _ = 1 to 5 do
        let fd = raw_connect port in
        let oc = Unix.out_channel_of_descr fd in
        output_string oc "EVALUATE inproceedings author 10000\n";
        flush oc;
        Unix.close fd
      done;
      Thread.delay 0.2;
      let c = Client.connect ~port () in
      Alcotest.(check bool) "server survives disconnects" true (Client.ping c);
      Client.close c)

(* A server over the shared index whose EVALUATE streams come from
   [stream] instead of the PEE. *)
let with_stream_server ?(config = Server.default_config) stream f =
  let backend =
    {
      (Server.memory (Lazy.force shared_flix)) with
      evaluate = (fun ~deadline_ns:_ ~start_tag:_ ~target_tag:_ ~k:_ ~max_dist:_ -> stream ());
    }
  in
  let server = Server.start_backend ~config backend in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let clean_flags () = { Server.timed_out = false; partial = false }

let stream_flushes_late_items () =
  (* Item 1, item 2 five milliseconds later, then a pull that blocks
     until released: item 2 must reach the client while the worker is
     still blocked, not only with the trailer. *)
  let m = Mutex.create () and cond = Condition.create () and released = ref false in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.signal cond;
    Mutex.unlock m
  in
  let stream () =
    let pulls = ref 0 in
    let next () =
      incr pulls;
      match !pulls with
      | 1 -> Some { P.node = 1; dist = 0; meta = 0 }
      | 2 ->
          Thread.delay 0.005;
          Some { P.node = 2; dist = 1; meta = 0 }
      | 3 ->
          Mutex.lock m;
          while not !released do
            Condition.wait cond m
          done;
          Mutex.unlock m;
          Some { P.node = 3; dist = 2; meta = 0 }
      | _ -> None
    in
    { Server.next; flags = clean_flags }
  in
  with_stream_server stream (fun server ->
      let fd = raw_connect (Server.port server) in
      Fun.protect
        ~finally:(fun () ->
          release ();
          Unix.close fd)
        (fun () ->
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          output_string oc "EVALUATE a b 10\n";
          flush oc;
          Alcotest.(check string) "first item" "ITEM 1 0 0" (input_line ic);
          Alcotest.(check string) "late item flushed before the release" "ITEM 2 1 0"
            (input_line ic);
          release ();
          Alcotest.(check string) "third item" "ITEM 3 2 0" (input_line ic);
          Alcotest.(check string) "trailer" "DONE 3" (input_line ic)))

let client_gone_frees_worker () =
  (* One worker, streaming an answer that would take 10 s (10,000 items,
     1 ms apart, under a 60 s deadline) to a client that reads one item
     and closes. The worker's next write must find the client gone and
     free the worker: a new connection gets a full DESCENDANTS answer
     well before the stream could have ended. *)
  let stream () =
    let n = ref 0 in
    let next () =
      if !n > 0 then Thread.delay 0.001;
      incr n;
      Some { P.node = !n; dist = !n; meta = 0 }
    in
    { Server.next; flags = clean_flags }
  in
  let config = { Server.default_config with workers = 1; deadline_ms = 60_000.0 } in
  with_stream_server ~config stream (fun server ->
      let port = Server.port server in
      let fd = raw_connect port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "EVALUATE a b 10000\n";
      flush oc;
      Alcotest.(check string) "stream started" "ITEM 1 1 0" (input_line ic);
      Unix.close fd;
      let c = Client.connect ~recv_timeout:5.0 ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let doc = Dblp.doc_name 3 in
          let got =
            match Client.descendants c ~doc ~tag:"author" ~k:10 () with
            | Ok (Client.Value (items, timed_out)) ->
                render (P.Items { items; timed_out; partial = false })
            | Ok _ -> "not a value"
            | Error e -> "transport error: " ^ e
          in
          Alcotest.(check string) "full answer on a new connection"
            (direct_descendants (Lazy.force shared_flix) ~doc ~tag:"author" ~k:10)
            got))

(* Read one response from [ic], returning its raw wire lines. *)
let raw_response ic =
  let lines = ref [] in
  let read () =
    match input_line ic with
    | l ->
        lines := l :: !lines;
        Some l
    | exception End_of_file -> None
  in
  match P.read_response read with
  | Ok _ -> String.concat "\n" (List.rev !lines)
  | Error e -> Alcotest.failf "bad response: %s" e

let pipelined_in_order () =
  (* Mixed pool-bound and inline verbs written in one go must come back
     in request order, byte-identical to the same lines sent one at a
     time. *)
  with_server (fun server ->
      let requests =
        [
          Printf.sprintf "DESCENDANTS %s - author 10" (Dblp.doc_name 4);
          "EVALUATE article author 5";
          "PING";
          "CONNECTED 5 5";
          Printf.sprintf "DESCENDANTS %s - - 30" (Dblp.doc_name 7);
          "CONNECTED 0 120";
          "EVALUATE inproceedings title 20";
          "PING";
          "DESCENDANTS no_such_doc - - 3";
          "EVALUATE article author 5";
        ]
      in
      let exchange f =
        let fd = raw_connect (Server.port server) in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
            f (Unix.out_channel_of_descr fd) (Unix.in_channel_of_descr fd))
      in
      let one_at_a_time =
        exchange (fun oc ic ->
            List.map
              (fun r ->
                output_string oc (r ^ "\n");
                flush oc;
                raw_response ic)
              requests)
      in
      let pipelined =
        exchange (fun oc ic ->
            output_string oc (String.concat "" (List.map (fun r -> r ^ "\n") requests));
            flush oc;
            List.map (fun _ -> raw_response ic) requests)
      in
      List.iteri
        (fun i (want, got) ->
          Alcotest.(check string) (Printf.sprintf "answer %d" i) want got)
        (List.combine one_at_a_time pipelined))

let concurrent_clients () =
  with_server
    ~config:{ Server.default_config with workers = 4 }
    (fun server ->
      let port = Server.port server in
      let flix = Lazy.force shared_flix in
      let n_threads = 6 and per_thread = 25 in
      let failures = Atomic.make 0 in
      let total = Atomic.make 0 in
      let threads =
        List.init n_threads (fun tid ->
            Thread.create
              (fun () ->
                let c = Client.connect ~port () in
                for i = 0 to per_thread - 1 do
                  let doc = Dblp.doc_name ((tid + (n_threads * i) * 7) mod 200) in
                  let got =
                    match Client.descendants c ~doc ~tag:"author" ~k:10 () with
                    | Ok (Client.Value (items, timed_out)) ->
                        render (P.Items { items; timed_out; partial = false })
                    | other ->
                        Printf.sprintf "failure: %s"
                          (match other with
                          | Error e -> e
                          | Ok Client.Busy -> "BUSY"
                          | Ok (Client.Server_error e) -> "ERR " ^ e
                          | Ok (Client.Value _) -> assert false)
                  in
                  let want = direct_descendants flix ~doc ~tag:"author" ~k:10 in
                  ignore (Atomic.fetch_and_add total 1);
                  if got <> want then ignore (Atomic.fetch_and_add failures 1)
                done;
                Client.close c)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "all requests answered" (n_threads * per_thread)
        (Atomic.get total);
      Alcotest.(check int) "every response byte-identical to direct Flix" 0
        (Atomic.get failures);
      let m = Server.metrics server in
      Alcotest.(check int) "metrics counted every request" (n_threads * per_thread)
        (Metrics.requests_total m ~verb:"descendants");
      Alcotest.(check int) "metrics observed every request" (n_threads * per_thread)
        (Metrics.observations m ~verb:"descendants"))

let deadline_timeout () =
  (* deadline 0: the deadline is already expired after the first pulled
     item, so any query with results returns a partial result marked
     TIMEOUT — deterministically. *)
  with_server
    ~config:{ Server.default_config with workers = 2; deadline_ms = 0.0 }
    (fun server ->
      let port = Server.port server in
      let c = Client.connect ~port () in
      (match Client.descendants c ~doc:(Dblp.doc_name 0) ~k:10_000 () with
      | Ok (Client.Value (items, timed_out)) ->
          Alcotest.(check bool) "timed out" true timed_out;
          Alcotest.(check bool) "partial, not empty" true (List.length items >= 1);
          Alcotest.(check bool) "partial, not complete" true (List.length items < 20)
      | _ -> Alcotest.fail "expected a partial TIMEOUT result");
      (match Client.sleep c 1000 with
      | Ok (Client.Value false) -> ()
      | _ -> Alcotest.fail "sleep under a 0ms deadline must time out");
      (* The server survives; the metrics saw the timeouts. *)
      Alcotest.(check bool) "alive after timeouts" true (Client.ping c);
      let m = Server.metrics server in
      Alcotest.(check int) "descendants timeout counted" 1
        (Metrics.timeouts_total m ~verb:"descendants");
      Alcotest.(check int) "sleep timeout counted" 1
        (Metrics.timeouts_total m ~verb:"sleep");
      Client.close c)

let admission_busy () =
  (* One worker, queue of one: a running SLEEP plus a queued SLEEP leave
     no room — the third concurrent request must bounce with BUSY. *)
  with_server
    ~config:
      { Server.default_config with workers = 1; queue_capacity = 1; deadline_ms = 10_000.0 }
    (fun server ->
      let port = Server.port server in
      let results = Array.make 2 (Ok Client.Busy) in
      let sleeper i =
        Thread.create
          (fun () ->
            let c = Client.connect ~port () in
            results.(i) <- Client.sleep c 600;
            Client.close c)
          ()
      in
      let t1 = sleeper 0 in
      Thread.delay 0.15;
      (* worker busy with t1's nap *)
      let t2 = sleeper 1 in
      Thread.delay 0.15;
      (* t2's nap waits in the queue: it is full now *)
      let c = Client.connect ~port () in
      (match Client.sleep c 10 with
      | Ok Client.Busy -> ()
      | other ->
          Alcotest.failf "expected BUSY, got %s"
            (match other with
            | Ok (Client.Value b) -> Printf.sprintf "Value %b" b
            | Ok (Client.Server_error e) -> "ERR " ^ e
            | Error e -> "transport error: " ^ e
            | Ok Client.Busy -> assert false));
      (* PING bypasses the pool and still works while saturated. *)
      Alcotest.(check bool) "inline plane alive" true (Client.ping c);
      List.iter Thread.join [ t1; t2 ];
      Array.iteri
        (fun i r ->
          match r with
          | Ok (Client.Value true) -> ()
          | _ -> Alcotest.failf "queued sleep %d should have completed" i)
        results;
      (* After the naps drain, the pool accepts work again. *)
      (match Client.sleep c 1 with
      | Ok (Client.Value true) -> ()
      | _ -> Alcotest.fail "server should accept work after saturation clears");
      let m = Server.metrics server in
      Alcotest.(check int) "rejection counted" 1 (Metrics.rejected_total m);
      Client.close c)

let stats_and_metrics_verbs () =
  with_server (fun server ->
      let port = Server.port server in
      let c = Client.connect ~port () in
      (match Client.stats c with
      | Ok (Client.Value lines) ->
          Alcotest.(check bool) "stats nonempty" true (List.length lines > 0);
          Alcotest.(check bool) "stats mentions FliX" true
            (List.exists (fun l -> Astring.String.is_infix ~affix:"FliX" l) lines);
          Alcotest.(check bool) "stats has the reach filter line" true
            (List.exists (fun l -> Astring.String.is_prefix ~affix:"reach filter: " l) lines)
      | _ -> Alcotest.fail "STATS failed");
      (match Client.metrics c with
      | Ok (Client.Value lines) ->
          Alcotest.(check bool) "metrics mention stats request" true
            (List.mem "flix_requests_total{verb=\"stats\"} 1" lines)
      | _ -> Alcotest.fail "METRICS failed");
      Client.close c)

let connected_matches_direct () =
  with_server (fun server ->
      let port = Server.port server in
      let flix = Lazy.force shared_flix in
      let c = Client.connect ~port () in
      let roots =
        List.init 20 (fun i ->
            Option.get (Flix.node_of flix ~doc:(Dblp.doc_name (i * 9)) ~anchor:None))
      in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let want = Flix.connected flix a b in
              match Client.connected c a b with
              | Ok (Client.Value got) ->
                  Alcotest.(check (option int))
                    (Printf.sprintf "connected %d %d" a b)
                    want got
              | _ -> Alcotest.failf "connected %d %d failed" a b)
            roots)
        (List.filteri (fun i _ -> i < 5) roots);
      Client.close c)

(* The memory server's EVALUATE is Flix.evaluate, item for item: the
   start elements are consumed in document order on both sides. The
   tag pairs are the ones flixbench's mem-read and mem-ingest send;
   mem-ingest checks its EVALUATE answers against Flix.evaluate. *)
let evaluate_matches_direct () =
  with_server (fun server ->
      let flix = Lazy.force shared_flix in
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          List.iter
            (fun (start_tag, target_tag) ->
              List.iter
                (fun k ->
                  let want =
                    Flix.evaluate flix ~start_tag ~target_tag
                    |> RS.take k
                    |> List.map (fun (it : Pee.item) ->
                           { P.node = it.node; dist = it.dist; meta = it.meta })
                  in
                  let q = P.Evaluate { start_tag; target_tag; k; max_dist = None } in
                  match Client.request c q with
                  | Ok resp ->
                      Alcotest.(check string)
                        (Printf.sprintf "EVALUATE %s %s %d" start_tag target_tag k)
                        (render (P.Items { items = want; timed_out = false; partial = false }))
                        (render resp)
                  | Error _ -> Alcotest.failf "EVALUATE %s %s %d failed" start_tag target_tag k)
                [ 1; 20; 100 ])
            [
              ("article", "author");
              ("inproceedings", "author");
              ("article", "title");
              ("inproceedings", "title");
              ("article", "cite");
              ("inproceedings", "cite");
            ]))

(* --- batches ----------------------------------------------------------- *)

(* A batch of probe verbs must answer exactly what the same requests
   answer one at a time — order restored by the SUB indexes. *)
let batch_matches_single () =
  with_server (fun server ->
      let port = Server.port server in
      let c = Client.connect ~port () in
      let flix = Lazy.force shared_flix in
      let n0 = Option.get (Flix.node_of flix ~doc:(Dblp.doc_name 0) ~anchor:None) in
      let n1 = Option.get (Flix.node_of flix ~doc:(Dblp.doc_name 9) ~anchor:None) in
      let reqs =
        [|
          P.Connected { a = n0; b = n1; max_dist = None };
          P.Node_descendants { node = n0; tag = Some "author"; k = 50; max_dist = None };
          P.Ancestors { node = n1 + 2; tag = None; k = 10; max_dist = None };
          P.Resolve { doc = Dblp.doc_name 3; anchor = None };
          P.Connected { a = n1; b = n1; max_dist = None };
        |]
      in
      (match Client.request_many c reqs with
      | Error e -> Alcotest.failf "batch failed: %s" e
      | Ok got ->
          Alcotest.(check int) "answer per sub" (Array.length reqs) (Array.length got);
          Array.iteri
            (fun i req ->
              match Client.request c req with
              | Ok want ->
                  Alcotest.(check string)
                    (Printf.sprintf "sub %d equals single exchange" i)
                    (render want) (render got.(i))
              | Error e -> Alcotest.failf "single exchange %d failed: %s" i e)
            reqs);
      (* The connection keeps its framing for ordinary requests. *)
      Alcotest.(check bool) "framing intact after batch" true (Client.ping c);
      let m = Server.metrics server in
      Alcotest.(check int) "batch counted once" 1 (Metrics.requests_total m ~verb:"batch");
      Alcotest.(check bool) "subs counted per verb" true
        (Metrics.requests_total m ~verb:"connected" >= 2);
      Client.close c)

(* One malformed and one disallowed sub-request mid-batch: each fails
   only its own slot; the healthy slots answer and framing survives. *)
let batch_malformed_sub () =
  with_server (fun server ->
      let port = Server.port server in
      let fd = raw_connect port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "BATCH 4\nCONNECTED 0 0\nFROBNICATE 7\nEVALUATE article author 5\nSLEEP 1\n";
      flush oc;
      let answers = Array.make 4 None in
      let result =
        P.read_batch_responses
          (fun () -> match input_line ic with
            | line -> Some line
            | exception End_of_file -> None)
          ~n:4
          ~on_response:(fun i resp -> answers.(i) <- Some resp)
      in
      (match result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "batch framing broke: %s" e);
      (match answers.(0) with
      | Some (P.Dist (Some 0)) -> ()
      | _ -> Alcotest.fail "healthy sub 0 should answer DIST 0");
      (match answers.(1) with
      | Some (P.Err _) -> ()
      | _ -> Alcotest.fail "malformed sub 1 should answer ERR");
      (match answers.(2) with
      | Some (P.Err e) ->
          Alcotest.(check bool) "disallowed verb named" true
            (Astring.String.is_infix ~affix:"EVALUATE" e)
      | _ -> Alcotest.fail "disallowed sub 2 should answer ERR");
      (match answers.(3) with
      | Some P.Ok_done -> ()
      | _ -> Alcotest.fail "healthy sub 3 should answer OK");
      output_string oc "PING\n";
      flush oc;
      Alcotest.(check string) "framing survives bad subs" "PONG" (input_line ic);
      Unix.close fd)

(* The DEADLINE envelope covers the whole batch: with one worker, a
   fast probe answers cleanly and the slow sleeps behind it come back
   TIMEOUT — answered prefix plus timed-out remainder. *)
let batch_deadline_mid () =
  with_server
    ~config:{ Server.default_config with workers = 1 }
    (fun server ->
      let port = Server.port server in
      let c = Client.connect ~port () in
      let reqs = [| P.Connected { a = 0; b = 0; max_dist = None }; P.Sleep 400; P.Sleep 400 |] in
      (match Client.request_many ~deadline_ms:120 c reqs with
      | Error e -> Alcotest.failf "batch failed: %s" e
      | Ok got ->
          (match got.(0) with
          | P.Dist (Some 0) -> ()
          | _ -> Alcotest.fail "fast sub should answer before the deadline");
          Array.iteri
            (fun i resp ->
              if i > 0 then
                match resp with
                | P.Items { timed_out = true; _ } -> ()
                | _ -> Alcotest.failf "slow sub %d should answer TIMEOUT" i)
            got);
      Alcotest.(check bool) "alive after batch deadline" true (Client.ping c);
      Client.close c)

(* Over-cap batches are consumed whole and answered with one ERR; the
   connection then keeps working. BATCH 0 and garbage counts are
   protocol errors. *)
let batch_size_limits () =
  with_server
    ~config:{ Server.default_config with max_batch = 4 }
    (fun server ->
      let port = Server.port server in
      let c = Client.connect ~port () in
      let reqs = Array.make 6 (P.Connected { a = 0; b = 0; max_dist = None }) in
      (match Client.request_many c reqs with
      | Error e ->
          Alcotest.(check bool) "oversize rejected with ERR" true
            (Astring.String.is_infix ~affix:"batch size exceeds 4" e)
      | Ok _ -> Alcotest.fail "oversized batch should be rejected");
      (* The server consumed the announced sub-lines: framing holds. *)
      Alcotest.(check bool) "framing intact after oversize" true (Client.ping c);
      Client.close c;
      let fd = raw_connect port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      List.iter
        (fun line ->
          output_string oc (line ^ "\n");
          flush oc;
          let reply = input_line ic in
          Alcotest.(check bool)
            (Printf.sprintf "%S -> ERR" line)
            true
            (String.length reply >= 3 && String.sub reply 0 3 = "ERR"))
        [ "BATCH 0"; "BATCH -3"; "BATCH many"; "DEADLINE 50 BATCH 0" ];
      output_string oc "PING\n";
      flush oc;
      Alcotest.(check string) "still serving" "PONG" (input_line ic);
      Unix.close fd)

(* One worker and a queue of two: a batch of eight naps takes one queue
   slot, so single requests sent while it runs wait behind it instead of
   being refused BUSY. Two of them, 20 ms apart, so that neither can slip
   into a moment when a queue holding the batch's subs had room. *)
let batch_one_queue_slot () =
  with_server
    ~config:{ Server.default_config with workers = 1; queue_capacity = 2 }
    (fun server ->
      let port = Server.port server in
      let after delay f =
        let result = ref (Error "no answer") in
        let th =
          Thread.create
            (fun () ->
              Thread.delay delay;
              let c = Client.connect ~port () in
              result := f c;
              Client.close c)
            ()
        in
        (th, result)
      in
      let batch = after 0.0 (fun c -> Client.request_many c (Array.make 8 (P.Sleep 40))) in
      let singles =
        List.map
          (fun delay ->
            after delay (fun c -> Client.request c (P.Connected { a = 0; b = 0; max_dist = None })))
          [ 0.1; 0.12 ]
      in
      List.iter (fun (th, _) -> Thread.join th) singles;
      Thread.join (fst batch);
      List.iter
        (fun (_, answer) ->
          match !answer with
          | Ok (P.Dist (Some 0)) -> ()
          | Ok r -> Alcotest.failf "single request answered %s" (render r)
          | Error e -> Alcotest.failf "single request failed: %s" e)
        singles;
      (match !(snd batch) with
      | Ok got ->
          Alcotest.(check (array string)) "every nap answers OK" (Array.make 8 "OK")
            (Array.map render got)
      | Error e -> Alcotest.failf "batch failed: %s" e);
      Alcotest.(check int) "nothing refused" 0 (Metrics.rejected_total (Server.metrics server)))

(* --- one-sub batches ---------------------------------------------------- *)

(* Send [header] and its sub-lines on [oc], then read the batch's [n]
   answers as raw wire lines, by SUB index. *)
let raw_batch oc ic header subs =
  output_string oc (String.concat "\n" (header :: subs) ^ "\n");
  flush oc;
  let n = List.length subs in
  let answers = Array.make n "" in
  for _ = 1 to n do
    let i = Scanf.sscanf (input_line ic) "SUB %d" Fun.id in
    answers.(i) <- raw_response ic
  done;
  answers

(* A sub's answer does not depend on the batch around it: the bytes of
   a one-sub batch must be those of the same sub inside a larger batch,
   for every batch-allowed verb, for a malformed and a disallowed sub,
   and under an expired DEADLINE envelope. *)
let one_sub_batch_bytes () =
  with_server (fun server ->
      let port = Server.port server in
      let fd = raw_connect port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      let flix = Lazy.force shared_flix in
      let n0 = Option.get (Flix.node_of flix ~doc:(Dblp.doc_name 0) ~anchor:None) in
      let n9 = Option.get (Flix.node_of flix ~doc:(Dblp.doc_name 9) ~anchor:None) in
      let subs =
        [
          Printf.sprintf "CONNECTED %d %d" n9 n0;
          Printf.sprintf "CONNECTED %d %d" n0 n9;
          Printf.sprintf "NDESCENDANTS %d author 50" n9;
          Printf.sprintf "NDESCENDANTS %d - 7 2" n0;
          Printf.sprintf "ANCESTORS %d - 10" (n9 + 2);
          Printf.sprintf "RESOLVE %s -" (Dblp.doc_name 3);
          "RESOLVE no_such_doc -";
          "SLEEP 1";
          "CONNECTED 0";
          "FROBNICATE 7";
          "EVALUATE article author 5";
          "DEADLINE 0 CONNECTED 0 0";
        ]
      in
      List.iter
        (fun (header, header2) ->
          List.iter
            (fun sub ->
              let one = raw_batch oc ic header [ sub ] in
              let two = raw_batch oc ic header2 [ sub; sub ] in
              Alcotest.(check string) (header ^ " | " ^ sub) two.(0) one.(0);
              Alcotest.(check string) (header ^ " | " ^ sub ^ ": both subs") two.(0) two.(1))
            subs)
        [ ("BATCH 1", "BATCH 2"); ("DEADLINE 0 BATCH 1", "DEADLINE 0 BATCH 2") ];
      (* All the subs in one batch: the wire carries their one-sub answers
         in index order, each after its own SUB line. *)
      let wire_lines header =
        output_string oc (String.concat "\n" (header :: subs) ^ "\n");
        flush oc;
        List.map
          (fun _ ->
            let sub_line = input_line ic in
            sub_line ^ "\n" ^ raw_response ic)
          subs
      in
      List.iter
        (fun (one_header, prefix) ->
          let want =
            List.mapi
              (fun i sub ->
                Printf.sprintf "SUB %d\n%s" i (raw_batch oc ic one_header [ sub ]).(0))
              subs
          in
          let header = Printf.sprintf "%sBATCH %d" prefix (List.length subs) in
          Alcotest.(check (list string)) (header ^ ": index order") want (wire_lines header))
        [ ("BATCH 1", ""); ("DEADLINE 0 BATCH 1", "DEADLINE 0 ") ];
      (* Under an expired envelope every sub answers TIMEOUT 0 or fails. *)
      Alcotest.(check (array string)) "expired envelope" [| "TIMEOUT 0" |]
        (raw_batch oc ic "DEADLINE 0 BATCH 1" [ "CONNECTED 0 0" ]);
      output_string oc "PING\n";
      flush oc;
      Alcotest.(check string) "framing intact" "PONG" (input_line ic);
      Unix.close fd)

(* The batch and its one sub are each counted once, and the duration is
   observed under "batch" only. *)
let one_sub_batch_counted () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      (match Client.request_many c [| P.Connected { a = 0; b = 0; max_dist = None } |] with
      | Ok [| P.Dist (Some 0) |] -> ()
      | _ -> Alcotest.fail "one-sub batch should answer DIST 0");
      let m = Server.metrics server in
      Alcotest.(check int) "batch counted once" 1 (Metrics.requests_total m ~verb:"batch");
      Alcotest.(check int) "sub verb counted once" 1 (Metrics.requests_total m ~verb:"connected");
      Alcotest.(check int) "batch duration observed once" 1 (Metrics.observations m ~verb:"batch");
      Alcotest.(check int) "no connected duration" 0 (Metrics.observations m ~verb:"connected");
      (match Client.request_many ~deadline_ms:0 c [| P.Connected { a = 0; b = 0; max_dist = None } |] with
      | Ok [| P.Items { timed_out = true; items = []; _ } |] -> ()
      | _ -> Alcotest.fail "an expired one-sub batch should answer TIMEOUT 0");
      Alcotest.(check int) "expired sub's timeout counted" 1
        (Metrics.timeouts_total m ~verb:"connected");
      Alcotest.(check int) "second batch observed" 2 (Metrics.observations m ~verb:"batch");
      Client.close c)

(* One worker and a queue of one, both held by naps: a one-sub batch
   waits for room, as a larger batch does, and never answers BUSY. *)
let one_sub_batch_backpressure () =
  with_server
    ~config:
      { Server.default_config with workers = 1; queue_capacity = 1; deadline_ms = 10_000.0 }
    (fun server ->
      let port = Server.port server in
      let sleeper () =
        Thread.create
          (fun () ->
            let c = Client.connect ~port () in
            ignore (Client.sleep c 300);
            Client.close c)
          ()
      in
      let t1 = sleeper () in
      Thread.delay 0.1;
      let t2 = sleeper () in
      Thread.delay 0.1;
      let c = Client.connect ~port () in
      (match Client.sleep c 1 with
      | Ok Client.Busy -> ()
      | _ -> Alcotest.fail "the queue should be full");
      (match Client.request_many c [| P.Connected { a = 0; b = 0; max_dist = None } |] with
      | Ok [| P.Dist (Some 0) |] -> ()
      | Ok [| r |] -> Alcotest.failf "one-sub batch answered %s" (render r)
      | _ -> Alcotest.fail "one-sub batch failed");
      List.iter Thread.join [ t1; t2 ];
      Alcotest.(check int) "only the plain request was refused" 1
        (Metrics.rejected_total (Server.metrics server));
      Client.close c)

(* A one-sub batch's worker writes to the socket itself, so a client
   that reads one item and vanishes must free the worker, as for a
   single request. *)
let one_sub_batch_client_gone () =
  let stream () =
    let n = ref 0 in
    let next () =
      if !n > 0 then Thread.delay 0.001;
      incr n;
      Some { P.node = !n; dist = !n; meta = 0 }
    in
    { Server.next; flags = clean_flags }
  in
  let backend =
    {
      (Server.memory (Lazy.force shared_flix)) with
      descendants = (fun ~deadline_ns:_ ~tag:_ ~k:_ ~max_dist:_ _ -> stream ());
    }
  in
  let config = { Server.default_config with workers = 1; deadline_ms = 60_000.0 } in
  let server = Server.start_backend ~config backend in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let port = Server.port server in
      let fd = raw_connect port in
      (* The first item must come while the stream runs, not with its
         end 10 s later. *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "BATCH 1\nNDESCENDANTS 0 - 10000\n";
      flush oc;
      Alcotest.(check string) "sub framed" "SUB 0" (input_line ic);
      Alcotest.(check string) "stream started" "ITEM 1 1 0" (input_line ic);
      Unix.close fd;
      let c = Client.connect ~recv_timeout:5.0 ~port () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.connected c 5 5 with
          | Ok (Client.Value (Some 0)) -> ()
          | _ -> Alcotest.fail "a new connection should be answered while the stream runs"))

(* --- disk backend ----------------------------------------------------- *)

module Idx = Fx_index
module C = Fx_xml.Collection

(* Persist a global-HOPI deployment of the shared collection, boot the
   server on it with [workers] domains, and hand the test the live
   server plus the in-memory index it must agree with. *)
let with_disk_server ~workers f =
  let coll = Lazy.force shared_collection in
  let dg = { Idx.Path_index.graph = C.graph coll; tag = C.tag coll } in
  let hopi = Idx.Hopi.build dg in
  let prefix = Filename.temp_file "fxsrv" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ prefix; prefix ^ ".labels"; prefix ^ ".catalog" ])
    (fun () ->
      Idx.Disk_hopi.save ~path:prefix dg hopi;
      Idx.Catalog.save ~path:(prefix ^ ".catalog") (Idx.Catalog.of_collection coll);
      let disk = Idx.Disk_hopi.open_ ~path:prefix () in
      let catalog = Idx.Catalog.load (prefix ^ ".catalog") in
      Fun.protect
        ~finally:(fun () -> Idx.Disk_hopi.close disk)
        (fun () ->
          let config = { Server.default_config with workers } in
          let server =
            Server.start_backend ~config (Server.disk ~hopi:disk ~catalog)
          in
          Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server hopi coll)))

let disk_backend_matches_memory () =
  with_disk_server ~workers:2 (fun server hopi coll ->
      let port = Server.port server in
      let k = 10 in
      (* Ground truth from the in-memory index the deployment froze. *)
      let truth ~doc ~tag =
        let d = Option.get (C.doc_of_name coll doc) in
        let start = C.root_of_doc coll d in
        let want = C.tag_id coll tag in
        ( start,
          Idx.Hopi.descendants_by_tag hopi start want
          |> List.filter (fun (v, dist) -> not (v = start && dist = 0))
          |> List.filteri (fun i _ -> i < k)
          |> List.map (fun (node, dist) -> { P.node; dist; meta = 0 }) )
      in
      let docs = List.init 40 (fun i -> Dblp.doc_name (i * 5)) in
      let expected = List.map (fun doc -> (doc, truth ~doc ~tag:"author")) docs in
      (* Hammer the two worker domains from four client threads; every
         answer must be byte-identical to the in-memory truth. *)
      let failures = Atomic.make 0 in
      let threads =
        List.init 4 (fun tid ->
            Thread.create
              (fun () ->
                let c = Client.connect ~port () in
                for round = 0 to 24 do
                  let doc, (start, want) =
                    List.nth expected ((tid + (round * 4)) mod List.length expected)
                  in
                  (match Client.descendants c ~doc ~tag:"author" ~k () with
                  | Ok (Client.Value (items, false)) when items = want -> ()
                  | _ -> Atomic.incr failures);
                  match Client.connected c start start with
                  | Ok (Client.Value (Some 0)) -> ()
                  | _ -> Atomic.incr failures
                done;
                Client.close c)
              ())
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "all concurrent answers match memory" 0 (Atomic.get failures);
      (* CONNECTED between distinct docs agrees with the label store. *)
      let c = Client.connect ~port () in
      let roots = List.init 12 (fun i -> C.root_of_doc coll (i * 16)) in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let want = Idx.Hopi.distance hopi a b in
              match Client.connected c a b with
              | Ok (Client.Value got) ->
                  Alcotest.(check (option int))
                    (Printf.sprintf "connected %d %d" a b)
                    want got
              | _ -> Alcotest.failf "connected %d %d failed" a b)
            roots)
        (List.filteri (fun i _ -> i < 4) roots);
      (* The deployment's buffer-pool counters ride the METRICS verb. *)
      (match Client.metrics c with
      | Ok (Client.Value lines) ->
          let has prefix =
            List.exists (fun l -> Astring.String.is_prefix ~affix:prefix l) lines
          in
          Alcotest.(check bool) "pool hits exported" true
            (has "flix_pager_pool_hits_total{file=\"labels\"}");
          Alcotest.(check bool) "pool misses exported" true
            (has "flix_pager_pool_misses_total{file=\"labels\"}")
      | _ -> Alcotest.fail "METRICS failed");
      (* STATS reports the disk regime, not the in-memory builder. *)
      (match Client.stats c with
      | Ok (Client.Value lines) ->
          Alcotest.(check bool) "stats mention the disk backend" true
            (List.exists (fun l -> Astring.String.is_infix ~affix:"disk" l) lines)
      | _ -> Alcotest.fail "STATS failed");
      Client.close c)

(* The disk backend sits behind the same front EVALUATE answer cache as
   the in-memory one: a repeated EVALUATE replays byte-identical items
   as a cache hit, and an answer cut off by its deadline is never
   stored. *)
let disk_evaluate_cached () =
  with_disk_server ~workers:2 (fun server _ _ ->
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let metric name =
            match Client.metrics c with
            | Ok (Client.Value ls) -> Option.value ~default:(-1) (Helpers.metric_value ls name)
            | _ -> Alcotest.fail "METRICS failed"
          in
          let q =
            P.Evaluate { start_tag = "article"; target_tag = "author"; k = 50; max_dist = None }
          in
          (match Client.request ~deadline_ms:0 c q with
          | Ok (P.Items { timed_out = true; _ }) -> ()
          | _ -> Alcotest.fail "a zero deadline should answer TIMEOUT");
          Alcotest.(check int) "a TIMEOUT answer is not cached" 0
            (metric "flix_eval_cache_entries");
          let ask () =
            match Client.request c q with
            | Ok (P.Items { timed_out = false; partial = false; items }) ->
                List.map P.item_line items
            | _ -> Alcotest.fail "EVALUATE should answer DONE"
          in
          let first = ask () in
          Alcotest.(check bool) "answer nonempty" true (first <> []);
          Alcotest.(check int) "no hit before the repeat" 0
            (metric "flix_eval_cache_hits_total");
          let second = ask () in
          Alcotest.(check (list string)) "replay is byte-identical" first second;
          Alcotest.(check int) "the repeat was a hit" 1 (metric "flix_eval_cache_hits_total")))

(* Disk EVALUATE is one merge over every start's hops: each target at
   its least distance from a start other than itself, in (distance,
   node) order — checked against the per-start in-memory answers,
   including start tag = target tag and an unknown target tag. *)
let disk_evaluate_matches_oracle () =
  with_disk_server ~workers:2 (fun server hopi coll ->
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let oracle start_tag target_tag k =
            match C.tag_id coll target_tag with
            | None -> []
            | Some target ->
                let best = Hashtbl.create 64 in
                List.iter
                  (fun s ->
                    List.iter
                      (fun (v, d) ->
                        if d > 0 then
                          match Hashtbl.find_opt best v with
                          | Some d' when d' <= d -> ()
                          | _ -> Hashtbl.replace best v d)
                      (Idx.Hopi.descendants_by_tag hopi s (Some target)))
                  (C.find_by_tag coll start_tag);
                Hashtbl.fold (fun v d acc -> (v, d) :: acc) best []
                |> Idx.Path_index.sort_results
                |> List.filteri (fun i _ -> i < k)
                |> List.map (fun (node, dist) -> { P.node; dist; meta = 0 })
          in
          List.iter
            (fun (start_tag, target_tag, k) ->
              let q = P.Evaluate { start_tag; target_tag; k; max_dist = None } in
              match Client.request c q with
              | Ok (P.Items { timed_out = false; partial = false; items }) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "EVALUATE %s %s %d" start_tag target_tag k)
                    true
                    (items = oracle start_tag target_tag k)
              | _ -> Alcotest.failf "EVALUATE %s %s %d should answer DONE" start_tag target_tag k)
            [
              ("article", "author", 20);
              ("inproceedings", "cite", 50);
              ("article", "article", 30);
              ("cite", "cite", 10);
              ("article", "no-such-tag", 5);
            ]))

(* A deployment directory DIR/index.{labels,catalog} of the shared
   collection, removed afterwards. *)
let with_deployment_dir f =
  let coll = Lazy.force shared_collection in
  let dg = { Idx.Path_index.graph = C.graph coll; tag = C.tag coll } in
  let dir = Filename.temp_file "fxdeploy" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let prefix = Filename.concat dir "index" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      Idx.Disk_hopi.save ~path:prefix dg (Idx.Hopi.build dg);
      Idx.Catalog.save ~path:(prefix ^ ".catalog") (Idx.Catalog.of_collection coll);
      f dir prefix)

(* A catalog of a smaller collection than the label store's. *)
let save_mismatched_catalog prefix =
  Idx.Catalog.save ~path:(prefix ^ ".catalog")
    (Idx.Catalog.of_collection (Dblp.collection { Dblp.default with n_docs = 120; seed = 5 }))

(* Boot flix_serve on [dir] and expect it to stop at once: exit 1 and
   one diagnostic line, no backtrace, containing every [affixes]. A
   server that boots anyway is stopped after 30 s (exit 124). *)
let expect_boot_refused dir affixes =
  let ic =
    Unix.open_process_in
      (Printf.sprintf "timeout 30 ../bin/flix_serve.exe --index-dir %s --port 0 2>&1 >/dev/null"
         (Filename.quote dir))
  in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "exit status 1" true (status = Unix.WEXITED 1);
  match lines with
  | [ line ] ->
      List.iter
        (fun affix ->
          Alcotest.(check bool) ("mentions " ^ affix) true (Astring.String.is_infix ~affix line))
        affixes
  | _ -> Alcotest.failf "expected one diagnostic line, got:\n%s" (String.concat "\n" lines)

(* A deployment of either earlier store layout, or one whose label
   file header has no root, stops flix_serve at boot with a line naming
   the label file and how to rebuild. *)
let flix_serve_refuses_stale_deployment () =
  List.iter
    (fun make_stale ->
      with_deployment_dir (fun dir prefix ->
          make_stale (prefix ^ ".labels");
          expect_boot_refused dir [ prefix ^ ".labels"; "--index-dir" ]))
    [
      (fun labels -> Helpers.stamp_store_layout labels None);
      (fun labels -> Helpers.stamp_store_layout labels (Some 1));
      Helpers.drop_header_root;
    ]

(* A catalog saved from another collection than the label store is
   refused at boot, naming both files. *)
let flix_serve_refuses_mismatched_catalog () =
  with_deployment_dir (fun dir prefix ->
      save_mismatched_catalog prefix;
      expect_boot_refused dir [ prefix ^ ".catalog"; prefix ^ ".labels" ])

(* RELOAD opens the deployment through the same check: a mismatched
   catalog answers ERR, and the serving epoch keeps its answers. *)
let flix_serve_reload_refuses_mismatched_catalog () =
  with_deployment_dir (fun dir prefix ->
      let out_r, out_w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process "../bin/flix_serve.exe"
          [| "flix_serve.exe"; "--index-dir"; dir; "--port"; "0"; "--workers"; "1" |]
          Unix.stdin out_w out_w
      in
      Unix.close out_w;
      let log = Unix.in_channel_of_descr out_r in
      Fun.protect
        ~finally:(fun () ->
          Unix.kill pid Sys.sigint;
          ignore (In_channel.input_all log);
          ignore (Unix.waitpid [] pid);
          close_in log)
        (fun () ->
          let rec port () =
            match In_channel.input_line log with
            | None -> Alcotest.fail "flix_serve exited before serving"
            | Some line -> (
                match Scanf.sscanf_opt line "serving on %[^:]:%d" (fun _ p -> p) with
                | Some p -> p
                | None -> port ())
          in
          let c = Client.connect ~port:(port ()) () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              (* DESCENDANTS bypasses the answer cache: the after
                 answer is read from the deployment. *)
              let ask () =
                match Client.descendants c ~doc:(Dblp.doc_name 3) ~tag:"author" ~k:5 () with
                | Ok (Client.Value (items, false)) -> List.map P.item_line items
                | _ -> Alcotest.fail "DESCENDANTS failed"
              in
              let before = ask () in
              Alcotest.(check bool) "answer nonempty" true (before <> []);
              save_mismatched_catalog prefix;
              (match Client.reload c with
              | Ok (Client.Server_error msg) ->
                  Alcotest.(check bool) "names the catalog" true
                    (Astring.String.is_infix ~affix:(prefix ^ ".catalog") msg)
              | _ -> Alcotest.fail "RELOAD over a mismatched catalog should answer ERR");
              (match Client.epoch c with
              | Ok (Client.Value 1) -> ()
              | _ -> Alcotest.fail "the refused RELOAD swapped the epoch");
              Alcotest.(check (list string)) "old epoch still answers" before (ask ()))))

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "request round-trip" `Quick request_roundtrip;
          Alcotest.test_case "case and whitespace" `Quick request_case_and_whitespace;
          Alcotest.test_case "malformed requests" `Quick malformed_requests;
          Alcotest.test_case "response round-trip" `Quick response_roundtrip;
          Alcotest.test_case "truncated responses" `Quick truncated_response;
          item_line_is_printf;
        ] );
      ( "work-queue",
        [
          Alcotest.test_case "bounds and fifo" `Quick queue_bounds;
          Alcotest.test_case "cross-domain delivery" `Quick queue_cross_domain;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and render" `Quick metrics_counters;
          Alcotest.test_case "histogram" `Quick metrics_histogram;
        ] );
      ( "service",
        [
          Alcotest.test_case "ping and error plane" `Quick ping_and_errors;
          Alcotest.test_case "raw malformed lines" `Quick raw_malformed_lines;
          Alcotest.test_case "oversized request line" `Quick oversized_line;
          Alcotest.test_case "connection cap" `Quick connection_cap;
          Alcotest.test_case "disconnect mid-response" `Quick disconnect_mid_response;
          Alcotest.test_case "late items flushed mid-stream" `Quick stream_flushes_late_items;
          Alcotest.test_case "client gone frees the worker" `Quick client_gone_frees_worker;
          Alcotest.test_case "pipelined mixed verbs in order" `Quick pipelined_in_order;
          Alcotest.test_case "disk backend" `Quick disk_backend_matches_memory;
          Alcotest.test_case "disk EVALUATE cached" `Quick disk_evaluate_cached;
          Alcotest.test_case "disk EVALUATE matches oracle" `Quick disk_evaluate_matches_oracle;
          Alcotest.test_case "stale deployment refused" `Quick
            flix_serve_refuses_stale_deployment;
          Alcotest.test_case "mismatched catalog refused at boot" `Quick
            flix_serve_refuses_mismatched_catalog;
          Alcotest.test_case "mismatched catalog refused at RELOAD" `Quick
            flix_serve_reload_refuses_mismatched_catalog;
          Alcotest.test_case "concurrent clients vs direct" `Quick concurrent_clients;
          Alcotest.test_case "deadline timeout" `Quick deadline_timeout;
          Alcotest.test_case "admission control BUSY" `Quick admission_busy;
          Alcotest.test_case "stats and metrics verbs" `Quick stats_and_metrics_verbs;
          Alcotest.test_case "connected matches direct" `Quick connected_matches_direct;
          Alcotest.test_case "EVALUATE matches direct" `Quick evaluate_matches_direct;
        ] );
      ( "batch",
        [
          Alcotest.test_case "matches single exchanges" `Quick batch_matches_single;
          Alcotest.test_case "malformed sub mid-batch" `Quick batch_malformed_sub;
          Alcotest.test_case "deadline mid-batch" `Quick batch_deadline_mid;
          Alcotest.test_case "size limits" `Quick batch_size_limits;
          Alcotest.test_case "one queue slot" `Quick batch_one_queue_slot;
          Alcotest.test_case "one sub: same bytes" `Quick one_sub_batch_bytes;
          Alcotest.test_case "one sub: counted once" `Quick one_sub_batch_counted;
          Alcotest.test_case "one sub: backpressure, not BUSY" `Quick one_sub_batch_backpressure;
          Alcotest.test_case "one sub: client gone frees the worker" `Quick
            one_sub_batch_client_gone;
        ] );
    ]
