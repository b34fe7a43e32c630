(* The hot-reload admin subsystem: snapshot pin/swap lifecycle, delta
   scoping, the epoch-tied scoped EVALUATE cache, incremental Flix
   maintenance checked byte-for-byte against cold rebuilds, the admin
   verbs over a live server (including wire framing failure modes), and
   coordinator reload rollback with a dead shard or a stale closure. *)

module C = Fx_xml.Collection
module X = Fx_xml.Xml_types
module Flix = Fx_flix.Flix
module MB = Fx_flix.Meta_builder
module IB = Fx_flix.Index_builder
module RS = Fx_flix.Result_stream
module Pee = Fx_flix.Pee
module Snapshot = Fx_admin.Snapshot
module Delta = Fx_admin.Delta
module Eval_cache = Fx_admin.Eval_cache
module Server = Fx_server.Server
module Client = Fx_server.Server_client
module P = Fx_server.Protocol
module Rng = Fx_util.Rng
module Dblp = Fx_workload.Dblp_gen
module Plan = Fx_shard.Shard_plan
module Coordinator = Fx_shard.Coordinator

(* --- snapshot -------------------------------------------------------- *)

let snapshot_lifecycle () =
  let retired = ref [] in
  let s = Snapshot.create ~retire:(fun v -> retired := v :: !retired) "a" in
  Alcotest.(check int) "starts at epoch 1" 1 (Snapshot.epoch s);
  let e1, v1 = Snapshot.pin s in
  Alcotest.(check int) "pin epoch" 1 e1;
  Alcotest.(check string) "pinned state" "a" v1;
  Alcotest.(check int) "publish bumps the epoch" 2 (Snapshot.publish s "b");
  Alcotest.(check string) "current swapped" "b" (Snapshot.current s);
  Alcotest.(check (list (pair int int)))
    "draining epoch stays visible"
    [ (1, 1); (2, 0) ]
    (Snapshot.pinned s);
  Alcotest.(check int) "one draining entry" 1 (Snapshot.draining_count s);
  Alcotest.(check (list string)) "pinned state not retired" [] !retired;
  Snapshot.unpin s 1;
  Alcotest.(check (list string)) "retired when the last pin drains" [ "a" ] !retired;
  Alcotest.(check (list (pair int int))) "drained" [ (2, 0) ] (Snapshot.pinned s);
  Alcotest.(check int) "publish again" 3 (Snapshot.publish s "c");
  Alcotest.(check (list string))
    "an unpinned state retires at publish" [ "b"; "a" ] !retired;
  match Snapshot.unpin s 999 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unpin of an unknown epoch must raise"

let snapshot_concurrent () =
  let retired = Atomic.make 0 in
  let s = Snapshot.create ~retire:(fun _ -> Atomic.incr retired) 0 in
  let stop = Atomic.make false in
  let pinners =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              let e, _ = Snapshot.pin s in
              Thread.yield ();
              Snapshot.unpin s e
            done)
          ())
  in
  for i = 1 to 50 do
    ignore (Snapshot.publish s i);
    Thread.delay 0.001
  done;
  Atomic.set stop true;
  List.iter Thread.join pinners;
  Alcotest.(check int) "final epoch" 51 (Snapshot.epoch s);
  Alcotest.(check int)
    "every superseded state retired exactly once" 50 (Atomic.get retired);
  Alcotest.(check int) "nothing draining at rest" 0 (Snapshot.draining_count s)

(* --- delta scope ------------------------------------------------------ *)

let delta_scope () =
  let d1 = X.document ~name:"d1" (X.elt "r" [ X.e "a" [] ]) in
  let d2 = X.document ~name:"d2" (X.elt "r" [ X.e "b" [] ]) in
  let old_n = C.n_nodes (C.build [ d1 ]) in
  (match Delta.extend_scope ~old_n_nodes:old_n (C.build [ d1; d2 ]) with
  | Delta.Tags tags ->
      Alcotest.(check bool) "new root tag in scope" true (List.mem "r" tags);
      Alcotest.(check bool) "new child tag in scope" true (List.mem "b" tags);
      Alcotest.(check bool) "old-only tag not in scope" false (List.mem "a" tags)
  | Delta.All -> Alcotest.fail "append without links must be tag-bounded");
  (* a new document linking into the old range is unbounded *)
  let d3 =
    X.document ~name:"d3" (X.elt "r" [ X.e ~attrs:[ ("href", "d1") ] "cite" [] ])
  in
  (match Delta.extend_scope ~old_n_nodes:old_n (C.build [ d1; d3 ]) with
  | Delta.All -> ()
  | Delta.Tags _ -> Alcotest.fail "new->old link must be All");
  (* an old dangling href resolving against the new document is too *)
  let d4 =
    X.document ~name:"d4" (X.elt "r" [ X.e ~attrs:[ ("href", "d5") ] "cite" [] ])
  in
  let d5 = X.document ~name:"d5" (X.elt "r" []) in
  let old_n4 = C.n_nodes (C.build [ d4 ]) in
  match Delta.extend_scope ~old_n_nodes:old_n4 (C.build [ d4; d5 ]) with
  | Delta.All -> ()
  | Delta.Tags _ -> Alcotest.fail "old->new link must be All"

(* --- eval cache ------------------------------------------------------- *)

let key ?(target = "b") ?(k = 10) ?(max_dist = -1) start =
  { Eval_cache.start_tag = start; target_tag = target; k; max_dist }

let eval_cache_scoped_invalidation () =
  let t = Eval_cache.create ~capacity:16 ~epoch:1 in
  let find epoch k = Eval_cache.find t ~epoch k in
  Alcotest.(check (option int)) "cold miss" None (find 1 (key "a"));
  Eval_cache.store t ~epoch:1 (key "a") 1;
  Eval_cache.store t ~epoch:1 (key ~target:"c" "b") 2;
  Eval_cache.store t ~epoch:1 (key "e") 4;
  Alcotest.(check int) "resident" 3 (Eval_cache.length t);
  Alcotest.(check (option int)) "hit" (Some 1) (find 1 (key "a"));
  Alcotest.(check int) "hits" 1 (Eval_cache.hits t);
  Alcotest.(check int) "misses" 1 (Eval_cache.misses t);
  (* a swap touching tag "c" drops the entry with target "c" and keeps
     the rest warm under the new epoch *)
  Eval_cache.swap t ~epoch:2 (Delta.Tags [ "c" ]);
  Alcotest.(check (option int))
    "start/target disjoint from delta stays warm" (Some 1)
    (find 2 (key "a"));
  Alcotest.(check (option int))
    "touched target dropped" None
    (find 2 (key ~target:"c" "b"));
  Alcotest.(check int) "one entry invalidated" 1 (Eval_cache.invalidated t);
  Alcotest.(check (option int)) "a retired epoch misses" None (find 1 (key "a"));
  (* start-tag matches invalidate too *)
  Eval_cache.swap t ~epoch:3 (Delta.Tags [ "e" ]);
  Alcotest.(check (option int)) "touched start dropped" None (find 3 (key "e"));
  (* An answer computed under the epoch before a swap but stored after
     it is never served. *)
  Eval_cache.swap t ~epoch:4 (Delta.Tags [ "zz" ]);
  Eval_cache.store t ~epoch:3 (key "g") 7;
  Alcotest.(check (option int)) "stale-epoch store not served" None (find 4 (key "g"));
  Eval_cache.store t ~epoch:4 (key "g") 7;
  Alcotest.(check (option int)) "current-epoch store served" (Some 7) (find 4 (key "g"));
  (* a scope-All swap keeps the counters but drops everything *)
  Eval_cache.swap t ~epoch:5 Delta.All;
  Alcotest.(check int) "empty" 0 (Eval_cache.length t);
  Alcotest.(check bool) "counters survive the swap" true (Eval_cache.hits t > 0);
  (* capacity 0 is a cache that never stores *)
  let off = Eval_cache.create ~capacity:0 ~epoch:1 in
  Eval_cache.store off ~epoch:1 (key "a") 1;
  Alcotest.(check (option int)) "capacity 0 stores nothing" None
    (Eval_cache.find off ~epoch:1 (key "a"))

(* --- incremental Flix vs cold rebuild -------------------------------- *)

let tag_pool = [| "sec"; "para"; "fig"; "cite"; "note" |]

(* A random small document; elements may carry href links to any name in
   [link_targets] — including documents that a later step removes, so
   the dangling-reference path is exercised. *)
let gen_doc rng ~name ~link_targets =
  let n_targets = List.length link_targets in
  let rec gen depth =
    let tag = tag_pool.(Rng.int rng (Array.length tag_pool)) in
    let attrs =
      if n_targets > 0 && Rng.int rng 4 = 0 then
        [ ("href", List.nth link_targets (Rng.int rng n_targets)) ]
      else []
    in
    let n_children = if depth >= 3 then 0 else Rng.int rng 3 in
    X.e ~attrs tag (List.init n_children (fun _ -> gen (depth + 1)))
  in
  X.document ~name (X.elt "doc" (List.init (1 + Rng.int rng 3) (fun _ -> gen 1)))

let items_of flix ~start_tag ~target_tag =
  Flix.evaluate flix ~start_tag ~target_tag
  |> RS.take 200
  |> List.map (fun (it : Pee.item) -> (it.node, it.dist, it.meta))

let check_equivalent what inc cold =
  List.iter
    (fun (start_tag, target_tag) ->
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "%s: %s//%s byte-identical" what start_tag target_tag)
        (items_of cold ~start_tag ~target_tag)
        (items_of inc ~start_tag ~target_tag))
    [ ("sec", "cite"); ("doc", "para"); ("para", "fig"); ("sec", "note");
      ("doc", "cite") ]

let incremental_matches_cold () =
  let rng = Rng.create 42 in
  for round = 0 to 4 do
    let names n prefix =
      List.init n (fun i -> Printf.sprintf "%s%d_%d" prefix round i)
    in
    let base_names = names 6 "base" and extra_names = names 4 "new" in
    let all_names = base_names @ extra_names in
    let mk name = gen_doc rng ~name ~link_targets:all_names in
    let base = List.map mk base_names and extra = List.map mk extra_names in
    (* extend only *)
    let extended = Flix.extend (Flix.build (C.build base)) extra in
    check_equivalent
      (Printf.sprintf "round %d extend" round)
      extended
      (Flix.build (C.build (base @ extra)));
    (* extend then remove, with links still pointing at the victims *)
    let victims = [ List.nth base_names 1; List.nth extra_names 0 ] in
    let survivors =
      List.filter
        (fun (d : X.document) -> not (List.mem d.name victims))
        (base @ extra)
    in
    check_equivalent
      (Printf.sprintf "round %d extend+remove" round)
      (Flix.remove extended victims)
      (Flix.build (C.build survivors))
  done

(* The acceptance counters: a meta-document-local delta must not rebuild
   untouched indexes. Under Naive (one meta document per document) an
   appended document leaves every old index digest-stable; under
   Spanning_ppo (one collection-wide PPO) the single index is extended
   in place rather than rebuilt. *)
let extend_reuses_and_extends () =
  let rng = Rng.create 9 in
  let base =
    List.init 5 (fun i ->
        gen_doc rng ~name:(Printf.sprintf "b%d" i) ~link_targets:[])
  in
  let fresh = [ gen_doc rng ~name:"fresh" ~link_targets:[] ] in
  let naive = Flix.extend (Flix.build ~config:MB.Naive (C.build base)) fresh in
  Alcotest.(check int)
    "Naive: every untouched meta-document index reused" 5
    (IB.reused_count (Flix.built naive));
  check_equivalent "naive extend" naive
    (Flix.build ~config:MB.Naive (C.build (base @ fresh)));
  let ppo = Flix.extend (Flix.build ~config:MB.Spanning_ppo (C.build base)) fresh in
  Alcotest.(check int)
    "Spanning_ppo: the collection-wide index delta-extended in place" 1
    (IB.extended_count (Flix.built ppo));
  check_equivalent "spanning-ppo extend" ppo
    (Flix.build ~config:MB.Spanning_ppo (C.build (base @ fresh)))

(* --- admin verbs over a live server ----------------------------------- *)

let render = function
  | Ok resp -> String.concat "\n" (P.response_lines resp)
  | Error e -> Alcotest.failf "transport error: %s" e

let base_xml =
  [
    ("ad0", "<doc><sec><cite href=\"ad1\"></cite></sec><para></para></doc>");
    ("ad1", "<doc><sec><note></note></sec></doc>");
  ]

let parse_docs docs =
  List.map
    (fun (name, body) ->
      match Fx_xml.Xml_parser.parse ~name body with
      | Ok d -> d
      | Error e ->
          Alcotest.failf "test bug: %s does not parse: %s" name
            (Fx_xml.Xml_parser.error_to_string e))
    docs

let with_backend_server ?config ?reload backend f =
  let server = Server.start_backend ?config ?reload backend in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f server c))

let expect_value what = function
  | Ok (Client.Value v) -> v
  | Ok Client.Busy -> Alcotest.failf "%s: busy" what
  | Ok (Client.Server_error e) -> Alcotest.failf "%s: server error %s" what e
  | Error e -> Alcotest.failf "%s: %s" what e

let expect_server_error what = function
  | Ok (Client.Server_error e) -> e
  | Ok (Client.Value _) -> Alcotest.failf "%s: unexpectedly succeeded" what
  | Ok Client.Busy -> Alcotest.failf "%s: busy" what
  | Error e -> Alcotest.failf "%s: transport error %s" what e

let server_ingest_evict_epoch () =
  let flix = Flix.build (C.build (parse_docs base_xml)) in
  with_backend_server (Server.memory flix) (fun server c ->
      Alcotest.(check int) "initial epoch" 1 (expect_value "epoch" (Client.epoch c));
      let msg = expect_server_error "reload" (Client.reload c) in
      Alcotest.(check bool) "RELOAD unconfigured says so" true
        (Astring.String.is_infix ~affix:"not configured" msg);
      (* ingest two documents, one linking into the old collection *)
      let extra =
        [
          ("ad2", "<doc><sec><cite href=\"ad0\"></cite></sec></doc>");
          ("ad3", "<doc><para><fig></fig></para></doc>");
        ]
      in
      Alcotest.(check int) "ingest swaps to epoch 2" 2
        (expect_value "ingest" (Client.ingest c extra));
      Alcotest.(check int) "EPOCH agrees" 2 (expect_value "epoch" (Client.epoch c));
      Alcotest.(check int) "server-side epoch" 2 (Server.epoch server);
      (* post-swap answers are byte-identical to a cold-started server
         over the merged collection *)
      let cold = Flix.build (C.build (parse_docs (base_xml @ extra))) in
      with_backend_server (Server.memory cold) (fun _ cc ->
          List.iter
            (fun req ->
              Alcotest.(check string)
                (P.request_line req) (render (Client.request cc req))
                (render (Client.request c req)))
            [
              P.Descendants
                { doc = "ad2"; anchor = None; tag = None; k = 50; max_dist = None };
              P.Descendants
                {
                  doc = "ad0";
                  anchor = None;
                  tag = Some "cite";
                  k = 10;
                  max_dist = None;
                };
              P.Evaluate
                { start_tag = "sec"; target_tag = "cite"; k = 20; max_dist = None };
              P.Resolve { doc = "ad3"; anchor = None };
            ]);
      (* failure modes leave the epoch alone and the connection alive *)
      let msg = expect_server_error "dup ingest" (Client.ingest c [ List.hd extra ]) in
      Alcotest.(check bool) "duplicate name rejected" true
        (Astring.String.is_infix ~affix:"ad2" msg);
      let _ = expect_server_error "evict unknown" (Client.evict c [ "nope" ]) in
      Alcotest.(check int) "failed mutations do not swap" 2
        (expect_value "epoch" (Client.epoch c));
      (* evict and verify the document is gone *)
      Alcotest.(check int) "evict swaps to epoch 3" 3
        (expect_value "evict" (Client.evict c [ "ad2" ]));
      (match
         Client.descendants c ~doc:"ad2" ~k:3 ()
       with
      | Ok (Client.Server_error _) -> ()
      | _ -> Alcotest.fail "evicted document must be unknown");
      (* the metrics plane exports the snapshot series *)
      let lines =
        match Client.metrics c with
        | Ok (Client.Value ls) -> ls
        | _ -> Alcotest.fail "metrics"
      in
      Alcotest.(check (option int))
        "flix_snapshot_epoch gauge" (Some 3)
        (Helpers.metric_value lines "flix_snapshot_epoch");
      Alcotest.(check bool) "reload histogram counted the swaps" true
        (match Helpers.metric_value lines "flix_reload_duration_seconds_count" with
        | Some n -> n >= 2
        | None -> false);
      Alcotest.(check bool) "pinned gauge present" true
        (List.exists
           (fun l ->
             Astring.String.is_prefix ~affix:"flix_snapshot_pinned{epoch=" l)
           lines);
      Alcotest.(check bool) "connection survived every swap" true (Client.ping c))

(* No stale reachability filter across swaps. "ra" cites "rb", which is
   not in the collection yet, and "rb" cites "rc": rc's root is out of
   ra's reach until rb arrives, and again once rb leaves. The filter
   rules the pair out exactly when no path exists. *)
let chain_xml =
  [
    ("ra", "<doc><cite href=\"rb\"></cite></doc>");
    ("rc", "<doc><sec></sec></doc>");
  ]

let chain_middle = [ ("rb", "<doc><cite href=\"rc\"></cite></doc>") ]

(* Appending keeps node ids, so ra's and rc's roots keep theirs in every
   epoch: 0 and 2. *)
let chain_a = 0 and chain_c = 2

let reach_filter_follows_extend_remove () =
  let may_reach f = Fx_graph.Reach_filter.may_reach (Flix.registry f).reach chain_a chain_c in
  let base = Flix.build (C.build (parse_docs chain_xml)) in
  Alcotest.(check bool) "dangling: ruled out" false (may_reach base);
  Alcotest.(check (option int)) "dangling: NODIST" None (Flix.connected base chain_a chain_c);
  let extended = Flix.extend base (parse_docs chain_middle) in
  Alcotest.(check bool) "extended: kept" true (may_reach extended);
  Alcotest.(check (option int)) "extended: distance"
    (Flix.true_distance extended chain_a chain_c)
    (Flix.connected extended chain_a chain_c);
  Alcotest.(check bool) "extended: bidir" true (Flix.connected_bidir extended chain_a chain_c);
  let removed = Flix.remove extended [ "rb" ] in
  Alcotest.(check bool) "removed: ruled out again" false (may_reach removed);
  Alcotest.(check (option int)) "removed: NODIST" None (Flix.connected removed chain_a chain_c);
  Alcotest.(check bool) "removed: bidir" false (Flix.connected_bidir removed chain_a chain_c)

let server_connected_across_swaps () =
  let flix = Flix.build (C.build (parse_docs chain_xml)) in
  with_backend_server (Server.memory flix) (fun _ c ->
      let ask () = expect_value "connected" (Client.connected c chain_a chain_c) in
      Alcotest.(check (option int)) "before INGEST" None (ask ());
      ignore (expect_value "ingest" (Client.ingest c chain_middle));
      let cold = Flix.build (C.build (parse_docs (chain_xml @ chain_middle))) in
      let want = Flix.connected cold chain_a chain_c in
      Alcotest.(check bool) "reachable after INGEST" true (want <> None);
      Alcotest.(check (option int)) "after INGEST" want (ask ());
      ignore (expect_value "evict" (Client.evict c [ "rb" ]));
      Alcotest.(check (option int)) "after EVICT" None (ask ()))

(* Scoped invalidation keeps unaffected EVALUATE entries warm across a
   tag-bounded swap: the second ask after the swap is still a cache hit. *)
let server_eval_cache_warm_across_swap () =
  let flix = Flix.build (C.build (parse_docs base_xml)) in
  with_backend_server (Server.memory flix) (fun _ c ->
      let hits () =
        match Client.metrics c with
        | Ok (Client.Value ls) ->
            Option.value ~default:(-1)
              (Helpers.metric_value ls "flix_eval_cache_hits_total")
        | _ -> Alcotest.fail "metrics"
      in
      let ask () =
        match
          Client.evaluate c ~start_tag:"sec" ~target_tag:"cite" ~k:5 ()
        with
        | Ok (Client.Value (items, _)) -> items
        | _ -> Alcotest.fail "evaluate"
      in
      let first = ask () in
      let warm = ask () in
      Alcotest.(check bool) "warm answer identical" true (warm = first);
      Alcotest.(check int) "second ask hit the cache" 1 (hits ());
      (* the ingested document touches only disjoint tags *)
      Alcotest.(check int) "tag-bounded swap" 2
        (expect_value "ingest"
           (Client.ingest c [ ("zz0", "<doc><zzz></zzz></doc>") ]));
      let after = ask () in
      Alcotest.(check bool) "post-swap answer identical" true (after = first);
      Alcotest.(check int) "post-swap ask was still a hit" 2 (hits ());
      (* an unbounded swap (evict) flushes the entry: next ask misses *)
      Alcotest.(check int) "evict" 3 (expect_value "evict" (Client.evict c [ "zz0" ]));
      ignore (ask ());
      Alcotest.(check int) "no hit after a scope-All swap" 2 (hits ()))

(* A backend record that counts its [close] calls. *)
let counting_close closes (b : Server.backend) =
  {
    b with
    close =
      (fun () ->
        Atomic.incr closes;
        b.close ());
  }

let wait_until what cond =
  let rec go n =
    if cond () then ()
    else if n = 0 then Alcotest.failf "timed out waiting until %s" what
    else begin
      Thread.delay 0.01;
      go (n - 1)
    end
  in
  go 300

(* RELOAD through the reload hook: the swap serves the hook's backend,
   the replaced one is closed exactly once through its record's
   [close], and a failing hook answers ERR with the old epoch intact. *)
let server_reload_hook () =
  let flix = Flix.build (C.build (parse_docs base_xml)) in
  let replacement =
    Flix.build
      (C.build (parse_docs (base_xml @ [ ("adr", "<doc><sec></sec></doc>") ])))
  in
  let retired = Atomic.make 0 in
  let fail_now = ref false in
  let reload () =
    if !fail_now then Error "deployment directory gone"
    else Ok (Server.memory replacement)
  in
  with_backend_server ~reload (counting_close retired (Server.memory flix)) (fun _ c ->
      Alcotest.(check int) "reload swaps" 2 (expect_value "reload" (Client.reload c));
      (match Client.request c (P.Resolve { doc = "adr"; anchor = None }) with
      | Ok (P.Items { items = [ _ ]; _ }) -> ()
      | other -> Alcotest.failf "new document not served: %s" (render other));
      (* the old backend drains immediately (no pinned requests left) *)
      wait_until "the old backend is closed" (fun () -> Atomic.get retired >= 1);
      fail_now := true;
      let msg = expect_server_error "failing reload" (Client.reload c) in
      Alcotest.(check bool) "hook error surfaces" true
        (Astring.String.is_infix ~affix:"deployment directory gone" msg);
      Alcotest.(check int) "epoch unchanged after failure" 2
        (expect_value "epoch" (Client.epoch c));
      Alcotest.(check bool) "connection alive" true (Client.ping c);
      Alcotest.(check int) "old backend closed exactly once" 1 (Atomic.get retired))

(* The disk case: after RELOAD the old deployment handle is closed
   exactly once, and only after a request pinned to its epoch — an
   in-flight SLEEP — has finished. *)
let server_reload_closes_disk () =
  let coll = C.build (parse_docs base_xml) in
  let dg = { Fx_index.Path_index.graph = C.graph coll; tag = C.tag coll } in
  let prefix = Filename.temp_file "fxadm" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ prefix; prefix ^ ".labels"; prefix ^ ".catalog" ])
    (fun () ->
      Fx_index.Disk_hopi.save ~path:prefix dg (Fx_index.Hopi.build dg);
      Fx_index.Catalog.save ~path:(prefix ^ ".catalog") (Fx_index.Catalog.of_collection coll);
      let open_disk closes =
        let hopi = Fx_index.Disk_hopi.open_ ~path:prefix () in
        counting_close closes
          (Server.disk ~hopi ~catalog:(Fx_index.Catalog.load (prefix ^ ".catalog")))
      in
      let closed_old = Atomic.make 0 and closed_new = Atomic.make 0 in
      let reload () = Ok (open_disk closed_new) in
      let config = { Server.default_config with workers = 2 } in
      let server = Server.start_backend ~config ~reload (open_disk closed_old) in
      Fun.protect
        ~finally:(fun () ->
          Server.stop server;
          (Server.current_backend server).close ())
        (fun () ->
          let port = Server.port server in
          let sleeper = Client.connect ~port () and c = Client.connect ~port () in
          Fun.protect
            ~finally:(fun () ->
              Client.close sleeper;
              Client.close c)
            (fun () ->
              let slept = ref (Error "never answered") in
              let th = Thread.create (fun () -> slept := Client.sleep sleeper 1_000) () in
              let pinned () =
                match Client.metrics c with
                | Ok (Client.Value lines) ->
                    Helpers.metric_value lines "flix_snapshot_pinned{epoch=\"1\"}"
                | _ -> None
              in
              wait_until "the SLEEP pins epoch 1" (fun () -> pinned () = Some 1);
              Alcotest.(check int) "reload swaps" 2 (expect_value "reload" (Client.reload c));
              (match Client.request c (P.Resolve { doc = "ad1"; anchor = None }) with
              | Ok (P.Items { items = [ _ ]; _ }) -> ()
              | other -> Alcotest.failf "new deployment not served: %s" (render other));
              Alcotest.(check int) "old deployment open while the SLEEP runs" 0
                (Atomic.get closed_old);
              Thread.join th;
              (match !slept with
              | Ok (Client.Value true) -> ()
              | _ -> Alcotest.fail "the pinned SLEEP did not complete");
              wait_until "the old deployment is closed" (fun () -> Atomic.get closed_old >= 1);
              Alcotest.(check bool) "connection alive" true (Client.ping c);
              Alcotest.(check int) "old deployment closed exactly once" 1
                (Atomic.get closed_old);
              Alcotest.(check int) "serving deployment still open" 0 (Atomic.get closed_new)));
      Alcotest.(check int) "stop leaves the old deployment closed once" 1
        (Atomic.get closed_old))

(* INGEST wire framing failure modes, against a raw socket. *)
let server_ingest_framing () =
  let flix = Flix.build (C.build (parse_docs base_xml)) in
  let config = { Server.default_config with max_ingest_lines = 4; workers = 1 } in
  let server = Server.start_backend ~config (Server.memory flix) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
        (fd, Unix.out_channel_of_descr fd, Unix.in_channel_of_descr fd)
      in
      let send oc lines =
        List.iter (fun l -> output_string oc (l ^ "\n")) lines;
        flush oc
      in
      (* an oversized document is consumed whole, answered with one ERR,
         and the connection keeps serving *)
      let fd, oc, ic = connect () in
      send oc
        ([ "INGEST 1"; "DOC big 10" ] @ List.init 10 (fun _ -> "<doc></doc>"));
      let reply = input_line ic in
      Alcotest.(check bool)
        (Printf.sprintf "oversized doc answers ERR, got %S" reply)
        true
        (Astring.String.is_prefix ~affix:"ERR" reply);
      send oc [ "PING" ];
      Alcotest.(check string) "connection survives the oversized doc" "PONG"
        (input_line ic);
      Unix.close fd;
      (* a malformed DOC header desynchronizes the framing: ERR, then
         the server closes the connection *)
      let fd, oc, ic = connect () in
      send oc [ "INGEST 2"; "this is not a doc header" ];
      let reply = input_line ic in
      Alcotest.(check bool)
        (Printf.sprintf "malformed header answers ERR, got %S" reply)
        true
        (Astring.String.is_prefix ~affix:"ERR" reply);
      (match input_line ic with
      | exception End_of_file -> ()
      | l -> Alcotest.failf "connection must close after a framing error, got %S" l);
      Unix.close fd)

(* --- coordinator hot reload ------------------------------------------- *)

(* The portal closure a coordinator over [plan] needs, and one built
   for an unrelated plan. *)
let closures_for plan shard_colls =
  let other = Dblp.collection { Dblp.default with n_docs = 20; seed = 5 } in
  let other_plan = Plan.plan ~n_shards:2 other in
  ( Helpers.closure_of plan (Helpers.hopis_of shard_colls),
    Helpers.closure_of other_plan
      (Helpers.hopis_of (Plan.shard_documents other_plan other |> Array.map C.build)) )

let coordinator_reload () =
  let coll = Dblp.collection { Dblp.default with n_docs = 60; seed = 3 } in
  let plan = Plan.plan ~n_shards:2 coll in
  let shard_colls = Plan.shard_documents plan coll |> Array.map C.build in
  let shard_flixes = Array.map Flix.build shard_colls in
  let closure, stale_closure = closures_for plan shard_colls in
  (* The closure the next RELOAD finds in the re-read manifest. *)
  let manifest_closure = ref closure in
  let shard_servers =
    Array.map
      (fun fx -> Server.start_backend ~reload:(fun () -> Ok (Server.memory fx)) (Server.memory fx))
      shard_flixes
  in
  let shards =
    Array.to_list shard_servers |> List.map (fun s -> ("127.0.0.1", Server.port s))
  in
  let coords = ref [] in
  let track c =
    coords := c :: !coords;
    c
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter Coordinator.close !coords;
      Array.iter Server.stop shard_servers)
    (fun () ->
      let coord = ref (track (Coordinator.create ~closure ~plan ~shards ())) in
      let reload () =
        match Coordinator.reload !coord ~plan ~closure:!manifest_closure with
        | Error e -> Error e
        | Ok fresh ->
            coord := track fresh;
            Ok (Coordinator.backend fresh)
      in
      let front = Server.start_backend ~reload (Coordinator.backend !coord) in
      Fun.protect
        ~finally:(fun () -> Server.stop front)
        (fun () ->
          let c = Client.connect ~port:(Server.port front) () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let q =
                P.Evaluate
                  {
                    start_tag = "inproceedings";
                    target_tag = "author";
                    k = 5;
                    max_dist = None;
                  }
              in
              let before = render (Client.request c q) in
              (* all shards up: the reload sweeps and swaps cleanly *)
              Alcotest.(check int) "reload swaps the coordinator" 2
                (expect_value "reload" (Client.reload c));
              Alcotest.(check string) "post-swap answer identical" before
                (render (Client.request c q));
              (* a manifest whose closure does not match its plan is
                 refused: ERR, and the old epoch keeps serving *)
              manifest_closure := stale_closure;
              let msg = expect_server_error "stale-closure reload" (Client.reload c) in
              Alcotest.(check bool)
                (Printf.sprintf "refusal names --build-shards: %s" msg)
                true
                (Astring.String.is_infix ~affix:"--build-shards" msg);
              Alcotest.(check int) "stale closure keeps the old epoch" 2
                (expect_value "epoch" (Client.epoch c));
              Alcotest.(check string) "old epoch still answers" before
                (render (Client.request c q));
              manifest_closure := closure;
              (* a dead shard fails the probe: clean ERR naming the
                 shard, framing intact, no mixed state *)
              Server.stop shard_servers.(1);
              let msg = expect_server_error "reload" (Client.reload c) in
              Alcotest.(check bool)
                (Printf.sprintf "error names the dead shard: %s" msg)
                true
                (Astring.String.is_infix ~affix:"shard 1" msg);
              Alcotest.(check int) "old epoch keeps serving" 2
                (expect_value "epoch" (Client.epoch c));
              Alcotest.(check bool) "connection alive" true (Client.ping c))))

(* Coordinator.reload alone: rollback leaves the old coordinator whole. *)
let coordinator_reload_rollback () =
  let coll = Dblp.collection { Dblp.default with n_docs = 40; seed = 8 } in
  let plan = Plan.plan ~n_shards:2 coll in
  let shard_colls = Plan.shard_documents plan coll |> Array.map C.build in
  let shard_flixes = Array.map Flix.build shard_colls in
  let closure = Helpers.closure_of plan (Helpers.hopis_of shard_colls) in
  let shard_servers =
    Array.map Server.start shard_flixes
  in
  let shards =
    Array.to_list shard_servers |> List.map (fun s -> ("127.0.0.1", Server.port s))
  in
  let coord = Coordinator.create ~closure ~plan ~shards () in
  Fun.protect
    ~finally:(fun () ->
      Coordinator.close coord;
      Array.iter Server.stop shard_servers)
    (fun () ->
      (* these shard servers have no admin hooks: the RELOAD sweep is
         refused mid-flight and the caller keeps the old coordinator *)
      (match Coordinator.reload coord ~plan ~closure with
      | Ok _ -> Alcotest.fail "reload must fail when a shard refuses"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "refusal names shard 0: %s" msg)
            true
            (Astring.String.is_infix ~affix:"shard 0" msg));
      (* shard-count mismatch is rejected before any shard is touched *)
      let plan1 = Plan.plan ~n_shards:1 coll in
      (match Coordinator.reload coord ~plan:plan1 ~closure with
      | Ok _ -> Alcotest.fail "shard-count mismatch must fail"
      | Error _ -> ());
      (* the old coordinator still answers *)
      let stream =
        (Coordinator.backend coord).evaluate
          ~deadline_ns:(Int64.add (Fx_util.Stopwatch.now_ns ()) 2_000_000_000L)
          ~start_tag:"article" ~target_tag:"author" ~k:3 ~max_dist:None
      in
      let rec drain () = if Option.is_some (stream.next ()) then drain () in
      drain ();
      match stream.flags () with
      | { timed_out = false; partial = false } -> ()
      | { timed_out; partial } ->
          Alcotest.failf "old coordinator degraded after failed reload: timed_out=%b partial=%b"
            timed_out partial)

let () =
  Alcotest.run "admin"
    [
      ( "snapshot",
        [
          Alcotest.test_case "lifecycle" `Quick snapshot_lifecycle;
          Alcotest.test_case "concurrent pin/publish" `Quick snapshot_concurrent;
        ] );
      ( "delta",
        [ Alcotest.test_case "extend scope" `Quick delta_scope ] );
      ( "caches",
        [
          Alcotest.test_case "eval cache scoped invalidation" `Quick
            eval_cache_scoped_invalidation;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "extend/remove vs cold rebuild" `Quick
            incremental_matches_cold;
          Alcotest.test_case "delta reuses untouched indexes" `Quick
            extend_reuses_and_extends;
        ] );
      ( "server",
        [
          Alcotest.test_case "ingest/evict/epoch" `Quick server_ingest_evict_epoch;
          Alcotest.test_case "reach filter follows extend/remove" `Quick
            reach_filter_follows_extend_remove;
          Alcotest.test_case "CONNECTED across INGEST/EVICT" `Quick
            server_connected_across_swaps;
          Alcotest.test_case "eval cache warm across swap" `Quick
            server_eval_cache_warm_across_swap;
          Alcotest.test_case "reload hook" `Quick server_reload_hook;
          Alcotest.test_case "reload closes the disk deployment once" `Quick
            server_reload_closes_disk;
          Alcotest.test_case "ingest framing" `Quick server_ingest_framing;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "hot reload via front server" `Quick coordinator_reload;
          Alcotest.test_case "rollback on failure" `Quick coordinator_reload_rollback;
        ] );
    ]
