(* The sharding subsystem: plan invariants and id translation, manifest
   persistence and its refusals, and live 2- and 3-shard clusters —
   coordinator answers cross-checked against a single server over the
   same collection, with
   deterministic fault injection (a dead shard must degrade to PARTIAL,
   not fail), the per-request DEADLINE override, the server's
   incremental ITEM flushing, and the client receive timeout. *)

module P = Fx_server.Protocol
module Server = Fx_server.Server
module Client = Fx_server.Server_client
module Plan = Fx_shard.Shard_plan
module Closure = Fx_shard.Portal_closure
module Coordinator = Fx_shard.Coordinator
module Flix = Fx_flix.Flix
module Meta_builder = Fx_flix.Meta_builder
module C = Fx_xml.Collection
module Dblp = Fx_workload.Dblp_gen

let shared_collection =
  lazy (Dblp.collection { Dblp.default with n_docs = 150; seed = 11 })

let shared_plan = lazy (Plan.plan ~n_shards:2 (Lazy.force shared_collection))
let shared_flix = lazy (Flix.build (Lazy.force shared_collection))

let shard_collections =
  lazy
    (Plan.shard_documents (Lazy.force shared_plan) (Lazy.force shared_collection)
    |> Array.map C.build)

let shard_flixes = lazy (Array.map Flix.build (Lazy.force shard_collections))

let shared_closure =
  lazy
    (Helpers.closure_of (Lazy.force shared_plan)
       (Helpers.hopis_of (Lazy.force shard_collections)))

(* --- plan ----------------------------------------------------------- *)

let plan_invariants () =
  let coll = Lazy.force shared_collection in
  let plan = Lazy.force shared_plan in
  Alcotest.(check int) "two shards" 2 (Plan.n_shards plan);
  Alcotest.(check int) "covers the collection" (C.n_nodes coll) (Plan.total_nodes plan);
  let doc_sum = ref 0 and node_sum = ref 0 in
  for s = 0 to Plan.n_shards plan - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d nonempty" s)
      true
      (Plan.shard_n_docs plan s > 0);
    doc_sum := !doc_sum + Plan.shard_n_docs plan s;
    node_sum := !node_sum + Plan.shard_n_nodes plan s
  done;
  Alcotest.(check int) "documents partitioned" (C.n_docs coll) !doc_sum;
  Alcotest.(check int) "nodes partitioned" (C.n_nodes coll) !node_sum;
  (* Id translation round-trips over every node in the collection. *)
  for g = 0 to C.n_nodes coll - 1 do
    let shard, local = Plan.locate plan g in
    if Plan.global_of plan ~shard ~local <> g then
      Alcotest.failf "locate/global_of do not round-trip at node %d" g
  done;
  (* Cross links really cross, and carry their target's tag name. *)
  let tags = C.tag coll in
  Alcotest.(check bool) "has cross-shard links" true
    (Array.length (Plan.cross_links plan) > 0);
  Array.iter
    (fun (l : Plan.cross_link) ->
      let s_src, _ = Plan.locate plan l.src and s_dst, _ = Plan.locate plan l.dst in
      if s_src = s_dst then Alcotest.failf "link %d -> %d does not cross" l.src l.dst;
      Alcotest.(check string)
        (Printf.sprintf "tag of link target %d" l.dst)
        (C.tag_name coll tags.(l.dst))
        l.dst_tag)
    (Plan.cross_links plan);
  (* Meta documents are never split: requesting far more shards than
     meta documents clamps instead of fragmenting. *)
  let huge = Plan.plan ~n_shards:10_000 coll in
  Alcotest.(check bool) "shard count clamped to meta count" true
    (Plan.n_shards huge >= 1 && Plan.n_shards huge < 10_000);
  (match Plan.plan ~config:(Meta_builder.Element_level { max_size = 64 }) ~n_shards:2 coll with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Element_level must be rejected: it splits documents");
  match Plan.plan ~n_shards:0 coll with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n_shards 0 must be rejected"

(* --- the portal closure and its manifest ------------------------------ *)

let plans_agree what plan plan' =
  Alcotest.(check int) (what ^ ": n_shards") (Plan.n_shards plan) (Plan.n_shards plan');
  Alcotest.(check int)
    (what ^ ": total_nodes")
    (Plan.total_nodes plan) (Plan.total_nodes plan');
  for g = 0 to Plan.total_nodes plan - 1 do
    if Plan.locate plan g <> Plan.locate plan' g then
      Alcotest.failf "%s: node %d placed differently after the load" what g
  done

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path body =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc body)

let expect_rebuild_refusal what path =
  match Closure.load_manifest path with
  | exception Fx_util.Codec.Corrupt msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: refusal names --build-shards (%s)" what msg)
        true
        (Astring.String.is_infix ~affix:"--build-shards" msg)
  | _ -> Alcotest.failf "%s must be refused" what

(* The plan half of the manifest: placement and cross links survive, and
   a cut inside the plan section is detected, not mistranslated. *)
let manifest_roundtrip () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  let path = Filename.temp_file "fxman" ".shards" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Closure.save_manifest ~path ~plan closure;
      let plan', _ = Closure.load_manifest path in
      plans_agree "plan" plan plan';
      let key (l : Plan.cross_link) = (l.src, l.dst, l.dst_tag) in
      let links p = Plan.cross_links p |> Array.map key |> Array.to_list |> List.sort compare in
      Alcotest.(check bool) "cross links survive" true (links plan = links plan');
      let w = Fx_util.Codec.Writer.create ~magic:"FXSHARDMAN2" in
      Plan.write_body w plan;
      let plan_only_len = String.length (Fx_util.Codec.Writer.contents w) in
      write_file path (String.sub (read_file path) 0 (plan_only_len / 2));
      match Closure.load_manifest path with
      | exception Fx_util.Codec.Corrupt _ -> ()
      | _ -> Alcotest.fail "a manifest cut inside the plan must raise Corrupt")

let manifest_v2_roundtrip () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  let path = Filename.temp_file "fxman2" ".shards" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Closure.save_manifest ~path ~plan closure;
      let plan', c = Closure.load_manifest path in
      plans_agree "v2" plan plan';
      Alcotest.(check int) "epoch survives" (Closure.epoch closure) (Closure.epoch c);
      (* The epoch travels through Codec varints, which only round-trip
         magnitudes below 2^61 — the digest must stay inside that. *)
      Alcotest.(check bool) "epoch is codec-safe" true
        (Closure.epoch closure >= 0 && Closure.epoch closure < 1 lsl 60);
      Alcotest.(check bool) "matches the loaded plan" true (Closure.matches c plan');
      Alcotest.(check int) "oracle nodes survive" (Closure.n_nodes closure)
        (Closure.n_nodes c);
      Alcotest.(check int) "label entries survive" (Closure.label_entries closure)
        (Closure.label_entries c);
      Alcotest.(check bool) "build time survives" true (Closure.build_seconds c > 0.0);
      (* Portal-to-portal distances survive byte for byte. *)
      let links = Plan.cross_links plan in
      Array.iteri
        (fun i (l : Plan.cross_link) ->
          let l' = links.(((i * 7) + 1) mod Array.length links) in
          if Closure.distance closure l.src l'.dst <> Closure.distance c l.src l'.dst
          then
            Alcotest.failf "distance %d -> %d changed across the roundtrip" l.src l'.dst)
        links;
      let body = read_file path in
      (* A manifest whose closure flag is 0 carries no closure: refused. *)
      let w = Fx_util.Codec.Writer.create ~magic:"FXSHARDMAN2" in
      Plan.write_body w plan;
      let plan_only_len = String.length (Fx_util.Codec.Writer.contents w) in
      Fx_util.Codec.Writer.int w 0;
      write_file path (Fx_util.Codec.Writer.contents w);
      expect_rebuild_refusal "flag-0 manifest" path;
      (* So is a v1 manifest: the same bytes under the FXSHARDMAN1 magic. *)
      write_file path ("FXSHARDMAN1" ^ String.sub body 11 (String.length body - 11));
      expect_rebuild_refusal "v1 manifest" path;
      (* Truncating anywhere — inside the plan or the closure section —
         must surface as Corrupt, never a crash or a silently shorter
         oracle. *)
      List.iter
        (fun cut ->
          write_file path (String.sub body 0 cut);
          match Closure.load_manifest path with
          | exception Fx_util.Codec.Corrupt _ -> ()
          | _ -> Alcotest.failf "truncation at %d bytes must raise Corrupt" cut)
        [
          String.length body / 2;
          plan_only_len;
          (* inside the closure header *)
          plan_only_len + 3;
          (* inside the serialized labels *)
          String.length body - 1;
        ])

(* --- live cluster ---------------------------------------------------- *)

(* Persist a collection as a disk deployment (the backend --build-shards
   produces) and serve it. Disk evaluation reports exact distances, so
   sharded and unsharded answers must agree set-for-set; the in-memory
   engine is the paper's approximate one, whose distances legitimately
   depend on the partition. *)
let with_disk_server ?config coll f =
  let dg = { Fx_index.Path_index.graph = C.graph coll; tag = C.tag coll } in
  let hopi = Fx_index.Hopi.build dg in
  let prefix = Filename.temp_file "fxshard" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ prefix; prefix ^ ".labels"; prefix ^ ".catalog" ])
    (fun () ->
      Fx_index.Disk_hopi.save ~path:prefix dg hopi;
      Fx_index.Catalog.save ~path:(prefix ^ ".catalog")
        (Fx_index.Catalog.of_collection coll);
      let disk = Fx_index.Disk_hopi.open_ ~path:prefix () in
      let catalog = Fx_index.Catalog.load (prefix ^ ".catalog") in
      Fun.protect
        ~finally:(fun () -> Fx_index.Disk_hopi.close disk)
        (fun () ->
          let server = Server.start_backend ?config (Server.disk ~hopi:disk ~catalog) in
          Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)))

let rec with_disk_servers colls f =
  match colls with
  | [] -> f []
  | c :: rest -> with_disk_server c (fun s -> with_disk_servers rest (fun ss -> f (s :: ss)))

(* Boot one in-memory server per shard, a coordinator in front of them,
   and hand the test the coordinator plus a client per endpoint. The
   front server runs [config], but its EVALUATE answer cache stays off
   unless [eval_cache] sizes it, so the fault tests see every request
   reach the coordinator. *)
let with_cluster ?(config = Server.default_config) ?(eval_cache = 0) f =
  let plan = Lazy.force shared_plan in
  let shard_servers = Array.map Server.start (Lazy.force shard_flixes) in
  Fun.protect
    ~finally:(fun () -> Array.iter Server.stop shard_servers)
    (fun () ->
      let shards =
        Array.to_list shard_servers |> List.map (fun s -> ("127.0.0.1", Server.port s))
      in
      let coord =
        Coordinator.create ~closure:(Lazy.force shared_closure) ~plan ~shards ()
      in
      Fun.protect
        ~finally:(fun () -> Coordinator.close coord)
        (fun () ->
          let front =
            Server.start_backend
              ~config:{ config with eval_cache_capacity = eval_cache }
              (Coordinator.backend coord)
          in
          Fun.protect
            ~finally:(fun () -> Server.stop front)
            (fun () -> f ~coord ~front ~shard_servers)))

(* Normalize a stream for comparison: the coordinator's merge may order
   equal-distance ties differently, and it reports the owning shard in
   [meta] where the single server reports the meta document. *)
let normal items = List.map (fun (it : P.item) -> (it.dist, it.node)) items |> List.sort compare

let ascending_dists items =
  let rec go last = function
    | [] -> true
    | (it : P.item) :: tl -> it.dist >= last && go it.dist tl
  in
  go 0 items

let stream_eq ~what got want =
  (match (got, want) with
  | Ok (P.Items g), Ok (P.Items w) ->
      Alcotest.(check bool) (what ^ ": flags") true
        (g.timed_out = w.timed_out && g.partial = w.partial);
      Alcotest.(check int) (what ^ ": count") (List.length w.items) (List.length g.items);
      if normal g.items <> normal w.items then
        Alcotest.failf "%s: item sets differ" what;
      Alcotest.(check bool)
        (what ^ ": merged stream ascends by distance")
        true (ascending_dists g.items)
  | _ -> Alcotest.failf "%s: expected item streams from both endpoints" what)

let lines_of = function
  | Ok resp -> String.concat "|" (P.response_lines resp)
  | Error e -> "transport error: " ^ e

let coordinator_matches_single_server () =
  let coll = Lazy.force shared_collection in
  let plan = Lazy.force shared_plan in
  with_disk_servers
    (coll :: Array.to_list (Lazy.force shard_collections))
    (function
      | [] | [ _ ] -> assert false
      | single :: shard_servers ->
          let shards = List.map (fun s -> ("127.0.0.1", Server.port s)) shard_servers in
          let coord =
            Coordinator.create ~closure:(Lazy.force shared_closure) ~plan ~shards ()
          in
          Fun.protect
            ~finally:(fun () -> Coordinator.close coord)
            (fun () ->
              let front =
                Server.start_backend (Coordinator.backend coord)
              in
              Fun.protect
                ~finally:(fun () -> Server.stop front)
                (fun () ->
                  let cc = Client.connect ~port:(Server.port front) () in
                  let sc = Client.connect ~port:(Server.port single) () in
                  Fun.protect
                    ~finally:(fun () ->
                      Client.close cc;
                      Client.close sc)
                    (fun () ->
              (* Large k so no top-k boundary cuts a tie group. *)
              let streams =
                [
                  P.Evaluate
                    { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None };
                  P.Evaluate
                    {
                      start_tag = "inproceedings";
                      target_tag = "cite";
                      k = 10_000;
                      max_dist = None;
                    };
                  P.Evaluate
                    { start_tag = "article"; target_tag = "title"; k = 10_000; max_dist = Some 3 };
                  P.Descendants
                    { doc = Dblp.doc_name 0; anchor = None; tag = None; k = 10_000; max_dist = None };
                  P.Descendants
                    {
                      doc = Dblp.doc_name 7;
                      anchor = None;
                      tag = Some "author";
                      k = 10_000;
                      max_dist = None;
                    };
                  P.Node_descendants { node = 0; tag = None; k = 10_000; max_dist = None };
                  P.Ancestors { node = 40; tag = None; k = 10_000; max_dist = None };
                  P.Ancestors { node = 100; tag = Some "article"; k = 10_000; max_dist = None };
                  P.Resolve { doc = Dblp.doc_name 3; anchor = None };
                ]
              in
              List.iter
                (fun req ->
                  let what = P.request_line req in
                  stream_eq ~what (Client.request cc req) (Client.request sc req))
                streams;
              (* Probes travel batched: the same probe work in fewer
                 round trips than sub-requests. *)
              let rpcs = Coordinator.probe_rpcs_total coord in
              let subs = Coordinator.probe_subs_total coord in
              Alcotest.(check bool) "probes flowed" true (subs > 0);
              Alcotest.(check bool) "batching collapses round trips" true (rpcs < subs);
              (* CONNECTED: exact distances, including portal paths that
                 hop between shards. Probe pairs with known reachability
                 (node 40's ancestor cone) plus a deterministic sweep of
                 mostly-unreachable pairs. *)
              let anc =
                match Client.request sc (P.Ancestors { node = 40; tag = None; k = 10_000; max_dist = None }) with
                | Ok (P.Items { items; _ }) -> List.map (fun (it : P.item) -> it.node) items
                | _ -> Alcotest.fail "ancestors ground truth failed"
              in
              let pairs =
                List.filteri (fun i _ -> i mod 7 = 0) anc
                |> List.map (fun a -> (a, 40))
                |> List.append (List.init 30 (fun i -> ((i * 131) mod 2000, (i * 613) mod 2000)))
              in
              List.iter
                (fun (a, b) ->
                  let want =
                    match Client.connected sc a b with
                    | Ok (Client.Value d) -> d
                    | _ -> Alcotest.failf "connected %d %d ground truth failed" a b
                  in
                  match Client.connected cc a b with
                  | Ok (Client.Value got) ->
                      Alcotest.(check (option int))
                        (Printf.sprintf "connected %d %d" a b)
                        want got
                  | _ -> Alcotest.failf "connected %d %d failed" a b)
                pairs;
              (* An unknown document is a semantic error on both. *)
              match
                Client.request cc
                  (P.Descendants
                     { doc = "no_such_doc"; anchor = None; tag = None; k = 5; max_dist = None })
              with
              | Ok (P.Err _) -> ()
              | _ -> Alcotest.fail "unknown doc should be ERR at the coordinator"))))

let dead_shard_degrades () =
  with_cluster (fun ~coord ~front ~shard_servers ->
      let c = Client.connect ~port:(Server.port front) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Warm path: healthy cluster answers DONE. *)
          (match
             Client.request c
               (P.Evaluate
                  { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None })
           with
          | Ok (P.Items { timed_out = false; partial = false; items }) ->
              Alcotest.(check bool) "healthy answer nonempty" true (items <> [])
          | _ -> Alcotest.fail "healthy cluster should answer DONE");
          Alcotest.(check int) "no errors while healthy" 0
            (Coordinator.shard_errors_total coord);
          (* Kill shard 1 mid-flight and ask again: the answer must
             degrade to PARTIAL within the deadline, with the surviving
             shard's items intact, and the error counter must move. *)
          Server.stop shard_servers.(1);
          (match
             Client.request ~deadline_ms:3_000 c
               (P.Evaluate
                  { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None })
           with
          | Ok (P.Items { partial = true; items; _ }) ->
              Alcotest.(check bool) "surviving shard still contributes" true (items <> [])
          | Ok r ->
              Alcotest.failf "expected PARTIAL with a dead shard, got %s"
                (String.concat "|" (P.response_lines r))
          | Error e -> Alcotest.failf "coordinator must not fail the query: %s" e);
          Alcotest.(check bool) "failed attempts counted" true
            (Coordinator.shard_errors_total coord > 0);
          let metrics = String.concat "\n" (Coordinator.metric_lines coord ()) in
          Alcotest.(check bool) "error series exported" true
            (Astring.String.is_infix ~affix:"flix_shard_errors_total{shard=\"1\"" metrics);
          Alcotest.(check bool) "fanout histogram exported" true
            (Astring.String.is_infix ~affix:"flix_shard_fanout_latency_ms_bucket" metrics);
          (* The coordinator endpoint itself stays healthy. *)
          Alcotest.(check bool) "front survives" true (Client.ping c)))

(* flix_shard_probe_batch_size records one sample per BATCH round trip,
   retries included — not one per probe wave. CONNECTED answers from
   probe waves alone, so the histogram counts exactly the coordinator's
   round trips: on a healthy cluster the BATCH requests the shards
   received, and with a shard down three attempts per wave that reaches
   it. *)
let batch_size_per_round_trip () =
  with_cluster (fun ~coord ~front ~shard_servers ->
      let c = Client.connect ~port:(Server.port front) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let metric name =
            match Helpers.metric_value (Coordinator.metric_lines coord ()) name with
            | Some v -> v
            | None -> Alcotest.failf "no %s" name
          in
          let coll = Lazy.force shared_collection in
          let plan = Lazy.force shared_plan in
          (* Document roots on shard 1, each CONNECTED from a root on
             shard 0: a cold entry-leg wave into shard 1 per pair. *)
          let roots_on shard =
            List.filter
              (fun g -> fst (Plan.locate plan g) = shard)
              (List.init (C.n_docs coll) (C.root_of_doc coll))
          in
          let sources = roots_on 0 and targets = roots_on 1 in
          let ask b =
            ignore
              (Client.request ~deadline_ms:5_000 c
                 (P.Connected { a = List.hd sources; b; max_dist = None }))
          in
          List.iteri (fun i b -> if i < 5 then ask b) targets;
          let batches =
            Array.fold_left
              (fun acc s -> acc + Fx_server.Metrics.requests_total (Server.metrics s) ~verb:"batch")
              0 shard_servers
          in
          Alcotest.(check bool) "waves were sent" true (batches > 0);
          Alcotest.(check int) "one sample per BATCH received" batches
            (metric "flix_shard_probe_batch_size_count");
          Alcotest.(check int) "sum = sub-requests carried" (Coordinator.probe_subs_total coord)
            (metric "flix_shard_probe_batch_size_sum");
          Server.stop shard_servers.(1);
          List.iteri (fun i b -> if i >= 5 && i < 8 then ask b) targets;
          Alcotest.(check bool) "the dead shard's waves were retried" true
            (Coordinator.shard_errors_total coord >= 3);
          Alcotest.(check int) "one sample per round trip, retries included"
            (Coordinator.probe_rpcs_total coord)
            (metric "flix_shard_probe_batch_size_count")))

(* The front server's EVALUATE answer cache over the coordinator: a
   repeated query replays the very same merge without touching a shard;
   degraded answers are never cached. *)
let query_cache_hits () =
  with_cluster ~eval_cache:16 (fun ~coord ~front ~shard_servers ->
      let c = Client.connect ~port:(Server.port front) () in
      let metric name =
        match Client.metrics c with
        | Ok (Client.Value ls) ->
            Option.value ~default:(-1) (Helpers.metric_value ls name)
        | _ -> Alcotest.fail "front METRICS failed"
      in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q =
            P.Evaluate
              { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None }
          in
          let first =
            match Client.request c q with
            | Ok (P.Items { timed_out = false; partial = false; items }) -> items
            | _ -> Alcotest.fail "first ask should answer DONE"
          in
          Alcotest.(check bool) "first ask nonempty" true (first <> []);
          let rpcs_after_miss = Coordinator.probe_rpcs_total coord in
          (match Client.request c q with
          | Ok (P.Items { timed_out = false; partial = false; items }) ->
              Alcotest.(check bool) "replay is identical" true (items = first)
          | _ -> Alcotest.fail "second ask should answer DONE");
          Alcotest.(check int) "replay asked no shard" rpcs_after_miss
            (Coordinator.probe_rpcs_total coord);
          Alcotest.(check int) "one hit" 1 (metric "flix_eval_cache_hits_total");
          Alcotest.(check int) "one miss" 1 (metric "flix_eval_cache_misses_total");
          Alcotest.(check bool) "entry stored" true (metric "flix_eval_cache_entries" >= 1);
          (* A degraded merge must not land in the cache: kill a shard,
             ask a fresh query, and check only the clean entry remains. *)
          Server.stop shard_servers.(1);
          (match
             Client.request ~deadline_ms:3_000 c
               (P.Evaluate
                  { start_tag = "inproceedings"; target_tag = "cite"; k = 100; max_dist = None })
           with
          | Ok (P.Items { partial = true; _ }) -> ()
          | Ok r ->
              Alcotest.failf "expected PARTIAL with a dead shard, got %s"
                (String.concat "|" (P.response_lines r))
          | Error e -> Alcotest.failf "coordinator must not fail the query: %s" e);
          Alcotest.(check int) "degraded merge not cached" 1
            (metric "flix_eval_cache_entries")))

(* A shard dying mid-pipeline must not poison the probe caches: after it
   comes back (same port), the same questions get the same answers a
   never-degraded cluster gives. *)
let dead_shard_no_cache_poison () =
  with_cluster (fun ~coord ~front ~shard_servers ->
      let c = Client.connect ~port:(Server.port front) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q =
            P.Evaluate
              { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None }
          in
          let conn_pairs = List.init 12 (fun i -> ((i * 131) mod 1500, (i * 613) mod 1500)) in
          let ask_conns () =
            List.map
              (fun (a, b) ->
                match
                  Client.request ~deadline_ms:3_000 c
                    (P.Connected { a; b; max_dist = None })
                with
                | Ok r -> r
                | Error e -> Alcotest.failf "connected %d %d failed: %s" a b e)
              conn_pairs
          in
          let healthy_eval =
            match Client.request c q with
            | Ok (P.Items { timed_out = false; partial = false; items }) -> items
            | _ -> Alcotest.fail "healthy cluster should answer DONE"
          in
          let healthy_conns = ask_conns () in
          (* ANCESTORS on entry portals of shard 1 that no CONNECTED above
             targets: their leg sets are first probed while shard 1 is
             down. The healthy answers come from a second coordinator, so
             this one has cached nothing for them yet. *)
          let plan = Lazy.force shared_plan in
          let conn_targets = List.map snd conn_pairs in
          let anc_nodes =
            Plan.cross_links plan |> Array.to_list
            |> List.map (fun (l : Plan.cross_link) -> l.dst)
            |> List.sort_uniq Int.compare
            |> List.filter (fun g -> fst (Plan.locate plan g) = 1 && not (List.mem g conn_targets))
            |> List.filteri (fun i _ -> i < 8)
          in
          let anc g = P.Ancestors { node = g; tag = None; k = 10_000; max_dist = None } in
          let healthy_anc =
            let shards =
              Array.to_list shard_servers |> List.map (fun s -> ("127.0.0.1", Server.port s))
            in
            let fresh =
              Coordinator.create ~closure:(Lazy.force shared_closure) ~plan ~shards ()
            in
            let fresh_front = Server.start_backend (Coordinator.backend fresh) in
            let fc = Client.connect ~port:(Server.port fresh_front) () in
            Fun.protect
              ~finally:(fun () ->
                Client.close fc;
                Server.stop fresh_front;
                Coordinator.close fresh)
              (fun () -> List.map (fun g -> lines_of (Client.request fc (anc g))) anc_nodes)
          in
          Alcotest.(check bool) "some healthy ANCESTORS crosses into shard 0" true
            (List.exists (fun l -> Astring.String.is_infix ~affix:" 0|" l) healthy_anc);
          (* Kill shard 1, run the same load degraded — every probe into
             shard 1 now fails, and none of those failures may stick. *)
          let port1 = Server.port shard_servers.(1) in
          Server.stop shard_servers.(1);
          (match Client.request ~deadline_ms:3_000 c q with
          | Ok (P.Items { partial = true; _ }) -> ()
          | _ -> Alcotest.fail "dead shard should degrade the evaluate");
          ignore (ask_conns () : P.response list);
          List.iter
            (fun g -> ignore (Client.request ~deadline_ms:3_000 c (anc g) : _ result))
            anc_nodes;
          (* Bring shard 1 back on the same port and re-ask: the answers
             must match the healthy run exactly. *)
          shard_servers.(1) <-
            Server.start
              ~config:{ Server.default_config with port = port1 }
              (Lazy.force shard_flixes).(1);
          (match Client.request ~deadline_ms:3_000 c q with
          | Ok (P.Items { timed_out = false; partial = false; items }) ->
              Alcotest.(check bool) "recovered evaluate matches healthy" true
                (normal items = normal healthy_eval)
          | Ok r ->
              Alcotest.failf "recovered cluster should answer DONE, got %s"
                (String.concat "|" (P.response_lines r))
          | Error e -> Alcotest.failf "recovered evaluate failed: %s" e);
          List.iter2
            (fun (a, b) want ->
              match
                Client.request ~deadline_ms:3_000 c
                  (P.Connected { a; b; max_dist = None })
              with
              | Ok got ->
                  Alcotest.(check (list string))
                    (Printf.sprintf "recovered connected %d %d" a b)
                    (P.response_lines want) (P.response_lines got)
              | Error e -> Alcotest.failf "recovered connected %d %d failed: %s" a b e)
            conn_pairs healthy_conns;
          List.iter2
            (fun g want ->
              Alcotest.(check string)
                (Printf.sprintf "recovered ancestors %d" g)
                want
                (lines_of (Client.request ~deadline_ms:3_000 c (anc g))))
            anc_nodes healthy_anc;
          ignore coord))

(* A document on a dead shard is still named by the plan: DESCENDANTS by
   its name answers what NDESCENDANTS on its root answers, PARTIAL with
   the portal streams of the live shard. *)
let dead_shard_descendants_by_name () =
  with_cluster (fun ~coord:_ ~front ~shard_servers ->
      let c = Client.connect ~port:(Server.port front) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let plan = Lazy.force shared_plan in
          let closure = Lazy.force shared_closure in
          let coll = Lazy.force shared_collection in
          let entries0 =
            Plan.cross_links plan |> Array.to_list
            |> List.map (fun (l : Plan.cross_link) -> l.dst)
            |> List.filter (fun g -> fst (Plan.locate plan g) = 0)
          in
          (* A document of shard 1 whose root reaches shard 0. *)
          let d =
            List.find
              (fun d ->
                let root = C.root_of_doc coll d in
                fst (Plan.locate plan root) = 1
                && List.exists (fun e -> Closure.distance closure root e <> None) entries0)
              (List.init (C.n_docs coll) Fun.id)
          in
          Server.stop shard_servers.(1);
          let by_name =
            Client.request ~deadline_ms:5_000 c
              (P.Descendants
                 { doc = C.doc_name coll d; anchor = None; tag = None; k = 10_000; max_dist = None })
          in
          let by_root =
            Client.request ~deadline_ms:5_000 c
              (P.Node_descendants
                 { node = C.root_of_doc coll d; tag = None; k = 10_000; max_dist = None })
          in
          Alcotest.(check string) "DESCENDANTS by name = NDESCENDANTS on the root"
            (lines_of by_root) (lines_of by_name);
          match by_name with
          | Ok (P.Items { partial = true; items; _ }) ->
              (* Shard 1's entry portals still emit themselves; their
                 streams are lost. *)
              Alcotest.(check bool) "the live shard's portal items" true
                (List.exists (fun (it : P.item) -> it.meta = 0) items)
          | other -> Alcotest.failf "expected PARTIAL with items, got %s" (lines_of other)))

(* Fill a shard that runs one worker and a queue of one: a nap of [ms]
   on the worker and a second one in the queue, 0.1 s apart, then 0.1 s
   to settle. The returned function waits for both naps to end. *)
let hold_shard ~ms server =
  let port = Server.port server in
  let sleeper () =
    Thread.create
      (fun () ->
        let sc = Client.connect ~port () in
        ignore (Client.sleep sc ms);
        Client.close sc)
      ()
  in
  let t1 = sleeper () in
  Thread.delay 0.1;
  let t2 = sleeper () in
  Thread.delay 0.1;
  fun () -> List.iter Thread.join [ t1; t2 ]

(* A shard with one worker and a queue of one, held by two naps: the
   coordinator's anchored RESOLVE rides a one-sub BATCH, which waits for
   room instead of meeting BUSY, so DESCENDANTS doc#anchor answers in
   full rather than PARTIAL 0. *)
let anchored_name_waits_for_full_shard () =
  let coll =
    Fx_workload.Inex_gen.collection { Fx_workload.Inex_gen.default with n_docs = 6; seed = 5 }
  in
  let plan = Plan.plan ~n_shards:2 coll in
  let colls = Plan.shard_documents plan coll |> Array.map C.build in
  let closure = Helpers.closure_of plan (Helpers.hopis_of colls) in
  let doc = Fx_workload.Inex_gen.doc_name 0 and anchor = "sec2" in
  Alcotest.(check bool) "the anchor exists" true
    (Option.is_some (C.node_of_anchor coll ~doc ~anchor));
  let config = { Server.default_config with workers = 1; queue_capacity = 1 } in
  let shard_servers = Array.map (fun c -> Server.start ~config (Flix.build c)) colls in
  Fun.protect
    ~finally:(fun () -> Array.iter Server.stop shard_servers)
    (fun () ->
      let shards =
        Array.to_list shard_servers |> List.map (fun s -> ("127.0.0.1", Server.port s))
      in
      let coord = Coordinator.create ~closure ~plan ~shards () in
      let front = Server.start_backend (Coordinator.backend coord) in
      let c = Client.connect ~port:(Server.port front) () in
      Fun.protect
        ~finally:(fun () ->
          Client.close c;
          Server.stop front;
          Coordinator.close coord)
        (fun () ->
          let release =
            hold_shard ~ms:300 shard_servers.(Option.get (Plan.shard_of_doc plan doc))
          in
          let req = P.Descendants { doc; anchor = Some anchor; tag = None; k = 100; max_dist = None } in
          let held = Client.request ~deadline_ms:5_000 c req in
          release ();
          (match held with
          | Ok (P.Items { partial = false; timed_out = false; items }) ->
              Alcotest.(check bool) "items" true (items <> [])
          | other -> Alcotest.failf "expected a full answer, got %s" (lines_of other));
          Alcotest.(check string) "same as on an idle shard"
            (lines_of (Client.request c req)) (lines_of held)))

(* A portal stream cut off by the deadline is not remembered: an
   NDESCENDANTS from a shard-0 root under DEADLINE 200, while shard 1 is
   held past it, gets TIMEOUT; the same request once shard 1 is free
   answers byte for byte what a fresh coordinator answers. *)
let timed_out_stream_not_replayed () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  let coll = Lazy.force shared_collection in
  let entries1 =
    Plan.cross_links plan |> Array.to_list
    |> List.map (fun (l : Plan.cross_link) -> l.dst)
    |> List.filter (fun g -> fst (Plan.locate plan g) = 1)
  in
  let root =
    List.init (C.n_docs coll) (C.root_of_doc coll)
    |> List.find (fun r ->
           fst (Plan.locate plan r) = 0
           && List.exists (fun e -> Closure.distance closure r e <> None) entries1)
  in
  let config = { Server.default_config with workers = 1; queue_capacity = 1 } in
  let shard_servers = Array.map (Server.start ~config) (Lazy.force shard_flixes) in
  let shards = Array.to_list shard_servers |> List.map (fun s -> ("127.0.0.1", Server.port s)) in
  let with_front f =
    let coord = Coordinator.create ~closure ~plan ~shards () in
    let front = Server.start_backend (Coordinator.backend coord) in
    let c = Client.connect ~port:(Server.port front) () in
    Fun.protect
      ~finally:(fun () ->
        Client.close c;
        Server.stop front;
        Coordinator.close coord)
      (fun () -> f c)
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Server.stop shard_servers)
    (fun () ->
      let req = P.Node_descendants { node = root; tag = None; k = 10_000; max_dist = None } in
      let repeated =
        with_front (fun c ->
            let release = hold_shard ~ms:800 shard_servers.(1) in
            let cut = Client.request ~deadline_ms:200 c req in
            release ();
            (match cut with
            | Ok (P.Items { timed_out = true; _ }) -> ()
            | other -> Alcotest.failf "expected TIMEOUT, got %s" (lines_of other));
            lines_of (Client.request c req))
      in
      Alcotest.(check string) "repeat = a fresh coordinator's answer"
        (with_front (fun c -> lines_of (Client.request c req)))
        repeated)

(* --- the closure against ground truth --------------------------------- *)

(* Boot a coordinator over disk shards next to one unsharded disk server
   over the whole collection: both report exact distances, so the
   unsharded server is the ground truth for every coordinator answer. *)
let with_coordinator_truth_shards ?config ~plan ~closure coll colls f =
  with_disk_servers
    (coll :: Array.to_list colls)
    (function
      | [] -> assert false
      | single :: shard_servers ->
          let shards = List.map (fun s -> ("127.0.0.1", Server.port s)) shard_servers in
          let coord = Coordinator.create ~closure ~plan ~shards () in
          Fun.protect
            ~finally:(fun () -> Coordinator.close coord)
            (fun () ->
              let front = Server.start_backend ?config (Coordinator.backend coord) in
              Fun.protect
                ~finally:(fun () -> Server.stop front)
                (fun () ->
                  let cc = Client.connect ~port:(Server.port front) () in
                  let sc = Client.connect ~port:(Server.port single) () in
                  Fun.protect
                    ~finally:(fun () ->
                      Client.close cc;
                      Client.close sc)
                    (fun () -> f ~coord ~cc ~sc ~shard_servers))))

let with_coordinator_and_truth ~plan ~closure coll colls f =
  with_coordinator_truth_shards ~plan ~closure coll colls (fun ~coord ~cc ~sc ~shard_servers:_ ->
      f ~coord ~cc ~sc)

let reference_k = 10_000

let k_of = function
  | P.Descendants { k; _ } | P.Node_descendants { k; _ } | P.Ancestors { k; _ }
  | P.Evaluate { k; _ } ->
      k
  | _ -> max_int

(* The same request with no top-k cut. *)
let uncut = function
  | P.Descendants r -> P.Descendants { r with k = reference_k }
  | P.Node_descendants r -> P.Node_descendants { r with k = reference_k }
  | P.Ancestors r -> P.Ancestors { r with k = reference_k }
  | P.Evaluate r -> P.Evaluate { r with k = reference_k }
  | req -> req

(* Tie-aware top-k check of the coordinator's answer G against the
   reference's uncut answer W: equal flags, |G| = min(k, |W|), G's
   distances ascending and equal to W's |G| smallest, and every
   (node, dist) of G in W with no node twice. Which of several nodes
   tied at the k-th distance make the cut is left open. [got] is the
   coordinator's answer to [req]. *)
let check_top_k_answer ~sc req got =
  let what = P.request_line req in
  match (got, Client.request sc (uncut req)) with
  | Ok (P.Items g), Ok (P.Items w) ->
      Alcotest.(check (pair bool bool))
        (what ^ ": flags")
        (w.timed_out, w.partial) (g.timed_out, g.partial);
      let n = List.length g.items in
      Alcotest.(check int)
        (what ^ ": |G| = min(k, |W|)")
        (min (k_of req) (List.length w.items))
        n;
      let dist (it : P.item) = it.dist in
      Alcotest.(check (list int))
        (what ^ ": distances ascend and match the reference's nearest")
        (List.map dist w.items |> List.sort compare |> List.filteri (fun i _ -> i < n))
        (List.map dist g.items);
      let truth = Hashtbl.create 256 in
      List.iter (fun (it : P.item) -> Hashtbl.replace truth (it.node, it.dist) ()) w.items;
      let seen = Hashtbl.create 256 in
      List.iter
        (fun (it : P.item) ->
          if Hashtbl.mem seen it.node then Alcotest.failf "%s: node %d twice" what it.node;
          Hashtbl.replace seen it.node ();
          if not (Hashtbl.mem truth (it.node, it.dist)) then
            Alcotest.failf "%s: (%d, %d) not in the reference answer" what it.node it.dist)
        g.items
  | _ -> Alcotest.failf "%s: expected item streams from both endpoints" what

let check_top_k ~cc ~sc req = check_top_k_answer ~sc req (Client.request cc req)

let check_connected ~cc ~sc (a, b) =
  match (Client.connected cc a b, Client.connected sc a b) with
  | Ok (Client.Value got), Ok (Client.Value want) ->
      Alcotest.(check (option int)) (Printf.sprintf "connected %d %d" a b) want got
  | _ -> Alcotest.failf "connected %d %d failed" a b

let closure_matches_single_server () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  with_coordinator_and_truth ~plan ~closure (Lazy.force shared_collection)
    (Lazy.force shard_collections)
    (fun ~coord ~cc ~sc ->
      let roots = Plan.doc_roots plan in
      let links = Plan.cross_links plan in
      let n = Plan.total_nodes plan in
      (* Streams: anchored starts (document roots), interior starts that
         pay the exit-probe wave, both directions, tag filters, and
         max_dist and k cutoffs that exercise the lazy stream fetch. *)
      let streams =
        [
          P.Descendants
            { doc = Dblp.doc_name 0; anchor = None; tag = None; k = 10_000; max_dist = None };
          P.Descendants
            {
              doc = Dblp.doc_name 7;
              anchor = None;
              tag = Some "author";
              k = 10_000;
              max_dist = None;
            };
          P.Node_descendants
            { node = roots.(Array.length roots / 2); tag = None; k = 10_000; max_dist = None };
          P.Node_descendants { node = 40; tag = None; k = 10_000; max_dist = None };
          (* An interior start that is a link source: its cross-shard reach
             goes through the exit-probe wave. *)
          P.Node_descendants
            { node = links.(Array.length links / 2).src; tag = None; k = 10_000; max_dist = None };
          P.Node_descendants { node = 1234 mod n; tag = Some "cite"; k = 50; max_dist = Some 6 };
          P.Ancestors { node = 40; tag = None; k = 10_000; max_dist = None };
          P.Ancestors { node = 100; tag = Some "article"; k = 10_000; max_dist = None };
          P.Ancestors { node = (n - 1); tag = None; k = 10_000; max_dist = Some 4 };
          P.Evaluate { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None };
          P.Evaluate
            { start_tag = "inproceedings"; target_tag = "cite"; k = 10_000; max_dist = None };
          P.Evaluate { start_tag = "article"; target_tag = "title"; k = 200; max_dist = Some 3 };
          (* Link targets are document roots: these targets make entry
             portals results in their own right. *)
          P.Evaluate
            { start_tag = "inproceedings"; target_tag = "article"; k = 10_000; max_dist = None };
          P.Evaluate { start_tag = "article"; target_tag = "inproceedings"; k = 40; max_dist = None };
          P.Resolve { doc = Dblp.doc_name 3; anchor = None };
        ]
      in
      List.iter (check_top_k ~cc ~sc) streams;
      (* CONNECTED over portal endpoints (known cross-shard paths) and a
         deterministic sweep of arbitrary pairs. *)
      let pairs =
        (Array.to_list links
        |> List.filteri (fun i _ -> i mod 5 = 0)
        |> List.concat_map (fun (l : Plan.cross_link) ->
               [ (roots.(0), l.dst); (l.src, l.dst); (l.dst, l.src) ]))
        @ List.init 25 (fun i -> ((i * 131) mod n, (i * 613) mod n))
      in
      List.iter (check_connected ~cc ~sc) pairs;
      Alcotest.(check bool) "label joins happened" true
        (Coordinator.closure_lookups_total coord > 0);
      let metrics = String.concat "\n" (Coordinator.metric_lines coord ()) in
      List.iter
        (fun series ->
          Alcotest.(check bool) (series ^ " exported") true
            (Astring.String.is_infix ~affix:series metrics))
        [
          "flix_coord_closure_lookups_total";
          "flix_closure_build_seconds";
          "flix_closure_label_entries";
        ];
      (* A closure built for one plan is refused — never joined — when
         offered with another. *)
      let other = Dblp.collection { Dblp.default with n_docs = 40; seed = 99 } in
      let other_plan = Plan.plan ~n_shards:2 other in
      match
        Coordinator.create ~closure ~plan:other_plan
          ~shards:[ ("127.0.0.1", 1); ("127.0.0.1", 2) ]
          ()
      with
      | exception Invalid_argument msg ->
          Alcotest.(check bool)
            (Printf.sprintf "refusal names --build-shards (%s)" msg)
            true
            (Astring.String.is_infix ~affix:"--build-shards" msg)
      | stale ->
          Coordinator.close stale;
          Alcotest.fail "a closure built for another plan must be refused")

(* The coordinator's shared probe tables are reset whole when they reach
   65,536 entries. A reset must never change an answer, not even one
   that a request's own probe stores trigger between its wave's stores
   and its joins. Push the shared CONNECTED table past that limit at
   least twice with CONNECTED from non-anchored starts (each pays a
   full exit-leg wave), holding every answer to the unsharded server.
   Close to the limit only cross-shard reachable pairs are asked, so
   the request whose own stores trip the reset has an answer to lose. *)
let probe_cache_overflow () =
  let coll = Lazy.force shared_collection in
  let plan = Lazy.force shared_plan in
  with_coordinator_and_truth ~plan ~closure:(Lazy.force shared_closure) coll
    (Lazy.force shard_collections)
    (fun ~coord:_ ~cc ~sc ->
      let conn_entries () =
        match Client.stats cc with
        | Ok (Client.Value lines) -> (
            match
              List.find_map
                (fun l -> Scanf.sscanf_opt l "probe cache: %d answers" Fun.id)
                lines
            with
            | Some n -> n
            | None -> Alcotest.fail "STATS has no probe cache line")
        | _ -> Alcotest.fail "coordinator STATS failed"
      in
      let anchored = Hashtbl.create 256 in
      Array.iter (fun g -> Hashtbl.replace anchored g ()) (Plan.doc_roots plan);
      Array.iter
        (fun (l : Plan.cross_link) -> Hashtbl.replace anchored l.dst ())
        (Plan.cross_links plan);
      let shard_of g = fst (Plan.locate plan g) in
      let n = Plan.total_nodes plan in
      (* The target for start [a]: its farthest descendant in the other
         shard, if any. *)
      let cross_target a =
        let best = ref None in
        Array.iteri
          (fun v d ->
            if d > 0 && shard_of v <> shard_of a then
              match !best with Some (_, d') when d' >= d -> () | _ -> best := Some (v, d))
          (Fx_graph.Traversal.bfs_distances (C.graph coll) a);
        Option.map fst !best
      in
      let resets = ref 0 and last = ref 0 and a = ref 0 in
      while !resets < 2 && !a < n do
        (if not (Hashtbl.mem anchored !a) then
           let near_limit = !last > 65_536 - 512 in
           match (cross_target !a, near_limit) with
           | None, true -> ()
           | target, _ ->
               check_connected ~cc ~sc
                 (!a, Option.value target ~default:((!a * 613) mod n));
               let now = conn_entries () in
               if now < !last then incr resets;
               last := now);
        incr a
      done;
      Alcotest.(check bool) "the shared table was reset at least twice" true (!resets >= 2))

(* Requests the shard servers counted for [verb]. *)
let shard_requests shard_servers ~verb =
  List.fold_left
    (fun acc s -> acc + Fx_server.Metrics.requests_total (Server.metrics s) ~verb)
    0 shard_servers

(* Leg sets: a CONNECTED into a target seen before — the same pair, or
   a new anchored start on the other shard — makes no shard request,
   and an ANCESTORS into it sends no CONNECTED probe (only its own and
   its exits' streams). A repeated ANCESTORS fetches only its own
   stream: its exits' streams are remembered. Every repeated answer is
   byte for byte the cold one; CONNECTED answers are the unsharded
   server's, ANCESTORS its top-k. *)
let leg_sets_answer_repeats () =
  let plan = Lazy.force shared_plan in
  with_coordinator_truth_shards ~plan ~closure:(Lazy.force shared_closure)
    (Lazy.force shared_collection) (Lazy.force shard_collections)
    (fun ~coord ~cc ~sc ~shard_servers ->
      let roots = Plan.doc_roots plan in
      let n = Plan.total_nodes plan in
      let shard_of g = fst (Plan.locate plan g) in
      let entries =
        Plan.cross_links plan |> Array.to_list
        |> List.map (fun (l : Plan.cross_link) -> l.dst)
        |> List.sort_uniq Int.compare
      in
      let targets =
        [ 40; 100; n - 1 ]
        @ List.filteri (fun i _ -> i mod 9 = 0) entries
        @ List.init 6 (fun i -> ((i * 613) + 11) mod n)
      in
      let conn (a, b) = P.Connected { a; b; max_dist = None } in
      let cold_pairs =
        List.concat_map (fun b -> [ (roots.(0), b); ((b * 131) mod n, b); (n - 1, b) ]) targets
      in
      let cold = List.map (fun p -> lines_of (Client.request cc (conn p))) cold_pairs in
      List.iter2
        (fun p got ->
          Alcotest.(check string) (P.request_line (conn p)) (lines_of (Client.request sc (conn p))) got)
        cold_pairs cold;
      let rpcs = Coordinator.probe_rpcs_total coord in
      List.iter2
        (fun p want ->
          Alcotest.(check string) ("repeated " ^ P.request_line (conn p)) want
            (lines_of (Client.request cc (conn p))))
        cold_pairs cold;
      let new_pairs =
        List.concat_map
          (fun b ->
            Array.to_list roots
            |> List.filter (fun r -> shard_of r <> shard_of b)
            |> List.filteri (fun i _ -> i mod 7 = 0)
            |> List.map (fun a -> (a, b)))
          targets
      in
      List.iter
        (fun p ->
          Alcotest.(check string) (P.request_line (conn p))
            (lines_of (Client.request sc (conn p)))
            (lines_of (Client.request cc (conn p))))
        new_pairs;
      Alcotest.(check int) "warm CONNECTED asked no shard" rpcs (Coordinator.probe_rpcs_total coord);
      (* ANCESTORS into the targets above, then into entry portals no
         request has named: cold, then repeated. *)
      let anc b = P.Ancestors { node = b; tag = None; k = 10_000; max_dist = None } in
      let counted verb f =
        let before = shard_requests shard_servers ~verb in
        let r = f () in
        (r, shard_requests shard_servers ~verb - before)
      in
      let leg_probes f = counted "connected" f in
      let (), probes =
        leg_probes (fun () -> List.iter (fun b -> check_top_k ~cc ~sc (anc b)) targets)
      in
      Alcotest.(check int) "ANCESTORS on CONNECTED targets sent no leg probe" 0 probes;
      let fresh = List.filteri (fun i _ -> i mod 9 = 4) entries in
      let (cold, probes), cold_streams =
        counted "ancestors" (fun () ->
            leg_probes (fun () -> List.map (fun b -> lines_of (Client.request cc (anc b))) fresh))
      in
      Alcotest.(check bool) "cold ANCESTORS probed its legs" true (probes > 0);
      Alcotest.(check bool) "cold ANCESTORS opened exit streams" true
        (cold_streams > List.length fresh);
      let (warm, probes), streams =
        counted "ancestors" (fun () ->
            leg_probes (fun () -> List.map (fun b -> lines_of (Client.request cc (anc b))) fresh))
      in
      Alcotest.(check int) "repeated ANCESTORS sent no leg probe" 0 probes;
      Alcotest.(check int) "repeated ANCESTORS fetched only their own streams"
        (List.length fresh) streams;
      Alcotest.(check (list string)) "repeated ANCESTORS = cold" cold warm;
      List.iter (fun b -> check_top_k ~cc ~sc (anc b)) fresh)

(* Shard streams are remembered as packed runs of global keys, read by
   a cursor at the offset of whichever start reached them. Every cold
   answer is the unsharded server's top-k with each item's [meta] its
   owning shard, and the same request again — its portals' runs now
   replayed from the memo, and with no front answer cache — answers the
   cold bytes. Two starts reach one entry portal at different
   distances, so its one run is read at two offsets. *)
let warm_streams_replay_cold_bytes () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  let coll = Lazy.force shared_collection in
  let config = { Server.default_config with eval_cache_capacity = 0 } in
  with_coordinator_truth_shards ~config ~plan ~closure coll (Lazy.force shard_collections)
    (fun ~coord:_ ~cc ~sc ~shard_servers:_ ->
      let roots = Plan.doc_roots plan in
      let links = Plan.cross_links plan in
      let entries =
        Array.to_list links
        |> List.map (fun (l : Plan.cross_link) -> l.dst)
        |> List.sort_uniq Int.compare
      in
      (* The document whose root reaches the most entry portals. *)
      let reach i =
        let r = C.root_of_doc coll i in
        List.length (List.filter (fun e -> Closure.distance closure r e <> None) entries)
      in
      let doc =
        List.init (C.n_docs coll) Fun.id
        |> List.fold_left (fun best i -> if reach i > reach best then i else best) 0
        |> C.doc_name coll
      in
      let cold req =
        let got = Client.request cc req in
        check_top_k_answer ~sc req got;
        (match got with
        | Ok (P.Items { items; _ }) ->
            List.iter
              (fun (it : P.item) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s: meta of %d" (P.request_line req) it.node)
                  (fst (Plan.locate plan it.node))
                  it.meta)
              items
        | _ -> ());
        (req, lines_of got)
      in
      let descendants =
        List.concat_map
          (fun k ->
            List.map
              (fun tag -> P.Descendants { doc; anchor = None; tag; k; max_dist = None })
              [ None; Some "article"; Some "author" ])
          [ 1; 10; 100; 10_000 ]
      in
      let interior =
        (Array.to_list links
        |> List.find (fun (l : Plan.cross_link) -> not (Array.mem l.src roots)))
          .src
      in
      let answers =
        List.map cold
          (descendants
          @ [
              P.Node_descendants { node = interior; tag = None; k = 10_000; max_dist = None };
              P.Ancestors
                { node = List.nth entries (List.length entries / 2); tag = None; k = 10_000;
                  max_dist = None };
              P.Evaluate { start_tag = "article"; target_tag = "author"; k = 200; max_dist = None };
            ])
      in
      List.iter
        (fun (req, want) ->
          Alcotest.(check string) ("repeated " ^ P.request_line req) want
            (lines_of (Client.request cc req)))
        answers;
      let offsets =
        List.find_map
          (fun e ->
            let at =
              Array.to_list roots
              |> List.filter_map (fun r ->
                     if r = e then None
                     else Option.map (fun d -> (r, d)) (Closure.distance closure r e))
            in
            match at with
            | (r1, d1) :: rest ->
                Option.map (fun (r2, _) -> (r1, r2)) (List.find_opt (fun (_, d) -> d <> d1) rest)
            | [] -> None)
          entries
      in
      match offsets with
      | None -> Alcotest.fail "no entry portal is reached at two distances"
      | Some (r1, r2) ->
          List.iter
            (fun node ->
              ignore (cold (P.Node_descendants { node; tag = None; k = 10_000; max_dist = None })))
            [ r1; r2 ])

(* Document names are answered from the plan: RESOLVE and DESCENDANTS
   by name for every document match the unsharded server byte for byte
   but for [meta], RESOLVE is byte for byte what the shard's own answer
   globalizes to, and no shard counts a RESOLVE. An unknown name gets
   the same answers. *)
let names_from_plan () =
  let plan = Lazy.force shared_plan in
  let coll = Lazy.force shared_collection in
  with_coordinator_truth_shards ~plan ~closure:(Lazy.force shared_closure) coll
    (Lazy.force shard_collections)
    (fun ~coord:_ ~cc ~sc ~shard_servers ->
      let docs = List.init (C.n_docs coll) (C.doc_name coll) in
      let resolve doc = P.Resolve { doc; anchor = None } in
      let desc doc = P.Descendants { doc; anchor = None; tag = None; k = 10_000; max_dist = None } in
      (* The coordinator reports the owning shard in [meta], the disk
         server 0; every other byte must match. *)
      let meta0 = function
        | Ok (P.Items r) ->
            let items = List.map (fun (it : P.item) -> { it with meta = 0 }) r.items in
            lines_of (Ok (P.Items { r with items }))
        | other -> lines_of other
      in
      let answers =
        List.map
          (fun doc ->
            let r = Client.request cc (resolve doc) in
            List.iter
              (fun (req, got) ->
                Alcotest.(check string) (P.request_line req)
                  (meta0 (Client.request sc req))
                  (meta0 got))
              [ (resolve doc, r); (desc doc, Client.request cc (desc doc)) ];
            (doc, lines_of r))
          docs
      in
      List.iter
        (fun req ->
          Alcotest.(check string) (P.request_line req)
            (lines_of (Client.request sc req))
            (lines_of (Client.request cc req)))
        [ resolve "no_such_doc"; desc "no_such_doc" ];
      Alcotest.(check int) "no shard resolved a name" 0 (shard_requests shard_servers ~verb:"resolve");
      (* The bytes the shard's own answer globalizes to. *)
      List.iteri
        (fun i (doc, got) ->
          if i mod 10 = 0 then begin
            let shard = Option.get (Plan.shard_of_doc plan doc) in
            let s = Client.connect ~port:(Server.port (List.nth shard_servers shard)) () in
            Fun.protect
              ~finally:(fun () -> Client.close s)
              (fun () ->
                match Client.request s (resolve doc) with
                | Ok (P.Items { items = [ it ]; _ }) ->
                    Alcotest.(check string) ("globalized " ^ doc)
                      (Printf.sprintf "ITEM %d 0 %d|DONE 1"
                         (Plan.global_of plan ~shard ~local:it.node)
                         shard)
                      got
                | other -> Alcotest.failf "shard RESOLVE %s answered %s" doc (lines_of other))
          end)
        answers)

(* Same exactness contract on a fresh randomized 3-shard split, so the
   2-shard topology is not a lucky special case. *)
let closure_three_shards () =
  let coll = Dblp.collection { Dblp.default with n_docs = 90; seed = 23 } in
  let plan = Plan.plan ~n_shards:3 coll in
  Alcotest.(check int) "three shards" 3 (Plan.n_shards plan);
  Alcotest.(check bool) "plan has cross links" true
    (Array.length (Plan.cross_links plan) > 0);
  let colls = Plan.shard_documents plan coll |> Array.map C.build in
  let closure = Helpers.closure_of plan (Helpers.hopis_of colls) in
  with_coordinator_and_truth ~plan ~closure coll colls (fun ~coord ~cc ~sc ->
      let roots = Plan.doc_roots plan in
      let links = Plan.cross_links plan in
      let n = Plan.total_nodes plan in
      let streams =
        [
          P.Descendants
            { doc = Dblp.doc_name 1; anchor = None; tag = None; k = 10_000; max_dist = None };
          P.Node_descendants { node = roots.(1); tag = None; k = 10_000; max_dist = None };
          P.Node_descendants { node = 77 mod n; tag = None; k = 10_000; max_dist = None };
          P.Node_descendants { node = links.(0).src; tag = None; k = 10_000; max_dist = None };
          P.Ancestors { node = 55 mod n; tag = None; k = 10_000; max_dist = None };
          P.Evaluate { start_tag = "article"; target_tag = "author"; k = 10_000; max_dist = None };
          P.Evaluate
            { start_tag = "inproceedings"; target_tag = "cite"; k = 10_000; max_dist = None };
          (* Top-k cuts, small max_dist, and targets that are document
             roots — entry portals, emitted as items of their own at
             tied distances — so the lazy merge stops inside a tie. *)
          P.Descendants
            { doc = Dblp.doc_name 2; anchor = None; tag = None; k = 1; max_dist = None };
          P.Descendants
            { doc = Dblp.doc_name 5; anchor = None; tag = Some "article"; k = 3; max_dist = Some 4 };
          P.Node_descendants
            { node = roots.(Array.length roots - 1); tag = Some "inproceedings"; k = 2;
              max_dist = Some 3 };
          P.Node_descendants { node = links.(1).src; tag = None; k = 1; max_dist = Some 2 };
          P.Ancestors { node = (n - 1); tag = None; k = 1; max_dist = None };
          P.Ancestors { node = links.(0).dst; tag = Some "article"; k = 2; max_dist = Some 3 };
          P.Ancestors { node = 55 mod n; tag = None; k = 4; max_dist = Some 2 };
          P.Evaluate { start_tag = "inproceedings"; target_tag = "article"; k = 1; max_dist = None };
          P.Evaluate { start_tag = "article"; target_tag = "article"; k = 3; max_dist = Some 2 };
          P.Evaluate
            { start_tag = "inproceedings"; target_tag = "inproceedings"; k = 5; max_dist = Some 5 };
        ]
      in
      List.iter (check_top_k ~cc ~sc) streams;
      let pairs =
        (Array.to_list links
        |> List.filteri (fun i _ -> i mod 3 = 0)
        |> List.concat_map (fun (l : Plan.cross_link) -> [ (l.src, l.dst); (l.dst, l.src) ]))
        @ List.init 16 (fun i -> ((i * 239) mod n, (i * 467) mod n))
      in
      List.iter (check_connected ~cc ~sc) pairs;
      (* The same pairs under a small max_dist: NODIST past it. *)
      List.iter
        (fun (a, b) ->
          let req = P.Connected { a; b; max_dist = Some 3 } in
          Alcotest.(check string)
            (P.request_line req)
            (lines_of (Client.request sc req))
            (lines_of (Client.request cc req)))
        pairs;
      Alcotest.(check bool) "label joins happened" true
        (Coordinator.closure_lookups_total coord > 0))

(* --- nearest-first enumeration ------------------------------------------ *)

(* [Closure.nearest] against pairwise [Closure.distance] joins, both
   directions, on random 2- and 3-shard plans: for single and multiple
   seeds at random offsets, including seeds that are targets
   themselves, the enumeration must report exactly the reachable
   targets, each once, at its best seed-plus-distance, ascending. *)
let enumerator_matches_pairwise =
  let arb =
    QCheck.make
      ~print:(fun (shards, docs, seed) ->
        Printf.sprintf "shards=%d docs=%d seed=%d" shards docs seed)
      QCheck.Gen.(triple (int_range 2 3) (int_range 24 60) (int_bound 100_000))
  in
  Helpers.qtest ~count:10 "nearest-first enumeration = pairwise joins" arb
    (fun (n_shards, n_docs, seed) ->
      let coll = Dblp.collection { Dblp.default with n_docs; seed } in
      let plan = Plan.plan ~n_shards coll in
      let colls = Plan.shard_documents plan coll |> Array.map C.build in
      let closure = Helpers.closure_of plan (Helpers.hopis_of colls) in
      let distinct l = List.sort_uniq Int.compare l in
      let links = Array.to_list (Plan.cross_links plan) in
      let entries = distinct (List.map (fun (l : Plan.cross_link) -> l.dst) links) in
      let exits = distinct (List.map (fun (l : Plan.cross_link) -> l.src) links) in
      let nodes = distinct (entries @ exits @ Array.to_list (Plan.doc_roots plan)) in
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let check toward ~targets ~dist seeds =
        let best target =
          List.fold_left
            (fun acc (g, offset) ->
              match (dist g target, acc) with
              | Some d, Some b when b <= offset + d -> acc
              | Some d, _ -> Some (offset + d)
              | None, _ -> acc)
            None seeds
        in
        let want =
          List.filter_map (fun x -> Option.map (fun d -> (x, d)) (best x)) targets
          |> List.sort compare
        in
        let index g = Option.get (Closure.index closure g) in
        let next =
          Closure.nearest closure toward (List.map (fun (g, o) -> (index g, o)) seeds)
        in
        let rec drain acc =
          match next () with
          | Some (i, d) -> drain ((Closure.node closure i, d) :: acc)
          | None -> List.rev acc
        in
        let got = drain [] in
        let dists = List.map snd got in
        if dists <> List.sort Int.compare dists then
          QCheck.Test.fail_report "enumeration does not ascend";
        if List.sort compare got <> want then
          QCheck.Test.fail_reportf "seeds [%s]: enumeration differs from pairwise joins"
            (String.concat "; "
               (List.map (fun (g, o) -> Printf.sprintf "%d+%d" g o) seeds))
      in
      if links <> [] then
        for _ = 1 to 6 do
          let single = [ (pick nodes, 0) ] in
          let several =
            List.init (1 + Random.State.int rng 4) (fun _ ->
                (pick nodes, Random.State.int rng 6))
          in
          (* Seeds that are targets of the enumeration they seed. *)
          let on_entries = [ (pick entries, 2); (pick nodes, Random.State.int rng 4) ] in
          let on_exits = [ (pick exits, 3); (pick nodes, Random.State.int rng 4) ] in
          List.iter
            (fun seeds ->
              check Closure.Entries ~targets:entries ~dist:(Closure.distance closure) seeds;
              check Closure.Exits ~targets:exits
                ~dist:(fun g x -> Closure.distance closure x g)
                seeds)
            [ single; several; on_entries; on_exits ]
        done;
      true)

(* The merge opens portals only as its front reaches them: a top-1
   DESCENDANTS from the document root that reaches the most entry
   portals pops fewer closure candidates than it can reach. *)
let lazy_portal_opening () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  with_coordinator_and_truth ~plan ~closure (Lazy.force shared_collection)
    (Lazy.force shard_collections)
    (fun ~coord ~cc ~sc ->
      let entries =
        Plan.cross_links plan
        |> Array.map (fun (l : Plan.cross_link) -> l.dst)
        |> Array.to_list |> List.sort_uniq Int.compare
      in
      let reach r =
        List.length (List.filter (fun e -> Closure.distance closure r e <> None) entries)
      in
      let root, reachable =
        Array.fold_left
          (fun (br, bn) r ->
            let n = reach r in
            if n > bn then (r, n) else (br, bn))
          (-1, 0) (Plan.doc_roots plan)
      in
      Alcotest.(check bool) "some root reaches entry portals" true (reachable > 1);
      let before = Coordinator.closure_lookups_total coord in
      check_top_k ~cc ~sc (P.Node_descendants { node = root; tag = None; k = 1; max_dist = None });
      let pops = Coordinator.closure_lookups_total coord - before in
      if pops >= reachable then
        Alcotest.failf "k=1 from root %d popped %d candidates; it reaches %d entry portals"
          root pops reachable)

(* A shard named by host name resolves once at create and answers
   exactly as the same shard named by its address. *)
let hostname_shards () =
  let plan = Lazy.force shared_plan in
  let closure = Lazy.force shared_closure in
  with_disk_servers
    (Array.to_list (Lazy.force shard_collections))
    (fun shard_servers ->
      let front host =
        let shards = List.map (fun s -> (host, Server.port s)) shard_servers in
        let coord = Coordinator.create ~closure ~plan ~shards () in
        (coord, Server.start_backend (Coordinator.backend coord))
      in
      let by_name, name_front = front "localhost" in
      let by_addr, addr_front = front "127.0.0.1" in
      Fun.protect
        ~finally:(fun () ->
          Server.stop name_front;
          Server.stop addr_front;
          Coordinator.close by_name;
          Coordinator.close by_addr)
        (fun () ->
          let ask front req =
            let c = Client.connect ~port:(Server.port front) () in
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> lines_of (Client.request c req))
          in
          let roots = Plan.doc_roots plan in
          let n = Plan.total_nodes plan in
          List.iter
            (fun req ->
              let want = ask addr_front req in
              Alcotest.(check string) (P.request_line req) want (ask name_front req);
              Alcotest.(check bool)
                (P.request_line req ^ ": not an error")
                false
                (String.starts_with ~prefix:"ERR" want))
            [
              P.Descendants
                { doc = Dblp.doc_name 4; anchor = None; tag = None; k = 50; max_dist = None };
              P.Node_descendants { node = roots.(9); tag = Some "author"; k = 20; max_dist = None };
              P.Ancestors { node = n - 1; tag = None; k = 20; max_dist = None };
              P.Evaluate { start_tag = "article"; target_tag = "title"; k = 30; max_dist = None };
              P.Connected { a = n - 1; b = roots.(0); max_dist = None };
              P.Resolve { doc = Dblp.doc_name 3; anchor = None };
            ];
          Alcotest.(check int) "no shard errors by name" 0
            (Coordinator.shard_errors_total by_name)))

(* --- one front over every backend --------------------------------------- *)

(* One request list against a memory server, a disk server and a
   2-shard coordinator over the same documents. The request front owns
   node-range checks, name resolution, the [k] cap and the queued-expiry
   rule, so every backend must answer them alike. *)
let front_rules_every_backend () =
  let coll = Lazy.force shared_collection in
  let n = C.n_nodes coll in
  let config = { Server.default_config with max_results = 3 } in
  let memory = Server.start_backend ~config (Server.memory (Lazy.force shared_flix)) in
  Fun.protect
    ~finally:(fun () -> Server.stop memory)
    (fun () ->
      with_disk_server ~config coll (fun disk ->
          with_cluster ~config (fun ~coord:_ ~front ~shard_servers:_ ->
              let clients =
                List.map
                  (fun (name, server) -> (name, Client.connect ~port:(Server.port server) ()))
                  [ ("memory", memory); ("disk", disk); ("coordinator", front) ]
              in
              Fun.protect
                ~finally:(fun () -> List.iter (fun (_, c) -> Client.close c) clients)
                (fun () ->
                  let each f = List.iter (fun (name, c) -> f name c) clients in
                  let doc0 = Dblp.doc_name 0 in
                  let root0 = C.root_of_doc coll 0 in
                  let desc ?anchor doc =
                    P.Descendants { doc; anchor; tag = None; k = 100; max_dist = None }
                  in
                  let ndesc node =
                    P.Node_descendants { node; tag = None; k = 100; max_dist = None }
                  in
                  let anc node = P.Ancestors { node; tag = None; k = 100; max_dist = None } in
                  let eval start_tag target_tag =
                    P.Evaluate { start_tag; target_tag; k = 100; max_dist = None }
                  in
                  (* The same ERR text, byte for byte. *)
                  let range_err = Printf.sprintf "ERR node id out of range [0, %d)" n in
                  List.iter
                    (fun (req, want) ->
                      each (fun name c ->
                          Alcotest.(check string)
                            (Printf.sprintf "%s: %s" name (P.request_line req))
                            want
                            (lines_of (Client.request c req))))
                    [
                      (P.Connected { a = n; b = 0; max_dist = None }, range_err);
                      (P.Connected { a = 0; b = -1; max_dist = None }, range_err);
                      (ndesc n, range_err);
                      (anc n, range_err);
                      (desc "no_such_doc", "ERR unknown document or anchor no_such_doc");
                      ( desc ~anchor:"no_such_anchor" doc0,
                        Printf.sprintf "ERR unknown document or anchor %s#no_such_anchor" doc0 );
                    ];
                  (* [k] is capped at max_results. *)
                  List.iter
                    (fun (req, at_least) ->
                      each (fun name c ->
                          match Client.request c req with
                          | Ok (P.Items { items; timed_out = false; partial = false }) ->
                              let got = List.length items in
                              if got > 3 || got < at_least then
                                Alcotest.failf "%s: %s answered %d items, cap 3" name
                                  (P.request_line req) got
                          | other ->
                              Alcotest.failf "%s: %s answered %s" name (P.request_line req)
                                (lines_of other)))
                    [
                      (desc doc0, 3);
                      (ndesc root0, 3);
                      (anc (root0 + 2), 1);
                      (eval "article" "author", 3);
                    ];
                  (* The one queued-expiry rule at DEADLINE 0: single-answer
                     verbs answer TIMEOUT 0 unevaluated; a stream verb ends
                     TIMEOUT after at most its first item. Memory and disk
                     yield that item without further deadline-bound work. *)
                  each (fun name c ->
                      List.iter
                        (fun req ->
                          Alcotest.(check string)
                            (Printf.sprintf "%s: DEADLINE 0 %s" name (P.request_line req))
                            "TIMEOUT 0"
                            (lines_of (Client.request ~deadline_ms:0 c req)))
                        [
                          P.Stats;
                          P.Connected { a = root0; b = root0 + 1; max_dist = None };
                          P.Resolve { doc = doc0; anchor = None };
                        ]);
                  let expired_stream name c req =
                    match Client.request ~deadline_ms:0 c req with
                    | Ok (P.Items { items; timed_out = true; partial = false })
                      when List.length items <= 1 ->
                        List.length items
                    | other ->
                        Alcotest.failf "%s: DEADLINE 0 %s answered %s" name
                          (P.request_line req) (lines_of other)
                  in
                  each (fun name c ->
                      List.iter
                        (fun req ->
                          let got = expired_stream name c req in
                          if name <> "coordinator" && got <> 1 then
                            Alcotest.failf "%s: DEADLINE 0 %s streamed %d items, want 1" name
                              (P.request_line req) got)
                        [ desc doc0; ndesc root0; anc (root0 + 2) ];
                      ignore (expired_stream name c (eval "inproceedings" "title")));
                  (* The coordinator's merge pulls through the same cut: a
                     document root joins its entry portals from the closure
                     without any shard request, and a merge over several of
                     them ends TIMEOUT after the first. *)
                  let coordinator = List.assoc "coordinator" clients in
                  let streamed =
                    Array.to_list (Plan.doc_roots (Lazy.force shared_plan))
                    |> List.map (fun root -> expired_stream "coordinator" coordinator (ndesc root))
                  in
                  Alcotest.(check bool) "some expired merge streamed its first item" true
                    (List.mem 1 streamed)))))

(* An unknown tag name matches no element: every verb that takes one
   answers DONE 0 on every backend, the memory one included, without
   searching (the memory evaluator's -1 sentinel short-circuits). *)
let unknown_tags_every_backend () =
  let coll = Lazy.force shared_collection in
  let memory = Server.start (Lazy.force shared_flix) in
  Fun.protect
    ~finally:(fun () -> Server.stop memory)
    (fun () ->
      with_disk_server coll (fun disk ->
          with_cluster (fun ~coord:_ ~front ~shard_servers:_ ->
              let clients =
                List.map
                  (fun (name, server) -> (name, Client.connect ~port:(Server.port server) ()))
                  [ ("memory", memory); ("disk", disk); ("coordinator", front) ]
              in
              Fun.protect
                ~finally:(fun () -> List.iter (fun (_, c) -> Client.close c) clients)
                (fun () ->
                  let root = C.root_of_doc coll 3 and n = C.n_nodes coll in
                  let tag = Some "nosuchtag" in
                  List.iter
                    (fun max_dist ->
                      List.iter
                        (fun req ->
                          List.iter
                            (fun (name, c) ->
                              Alcotest.(check string)
                                (Printf.sprintf "%s: %s" name (P.request_line req))
                                "DONE 0"
                                (lines_of (Client.request c req)))
                            clients)
                        [
                          P.Descendants
                            { doc = Dblp.doc_name 3; anchor = None; tag; k = 10; max_dist };
                          P.Node_descendants { node = root; tag; k = 10; max_dist };
                          P.Ancestors { node = n - 1; tag; k = 10; max_dist };
                          P.Evaluate
                            { start_tag = "article"; target_tag = "nosuchtag"; k = 10; max_dist };
                          P.Evaluate
                            { start_tag = "nosuchtag"; target_tag = "author"; k = 10; max_dist };
                        ])
                    [ None; Some 0; Some 6 ]))))

(* --- METRICS shape ---------------------------------------------------- *)

(* A METRICS payload with the HELP text dropped and every sample value
   masked: the TYPE lines, series names and label sets, in order. A
   shard's [addr] label carries an ephemeral port, so it is masked
   too. *)
let metrics_shape lines =
  let mask_addr series =
    match Astring.String.cut ~sep:"addr=\"" series with
    | Some (pre, post) ->
        let close = String.index post '"' in
        pre ^ "addr=\"*" ^ String.sub post close (String.length post - close)
    | None -> series
  in
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"# HELP " l then None
      else if String.starts_with ~prefix:"#" l then Some l
      else Some (mask_addr (String.sub l 0 (String.rindex l ' '))))
    lines

(* The memory, disk and 2-shard coordinator deployments over the shared
   collection, each driven with the same fixed requests and then
   scraped while idle: [f name shape] for each. *)
let each_metrics_shape f =
  let coll = Lazy.force shared_collection in
  let root0 = C.root_of_doc coll 0 in
  let requests =
    [
      P.Ping;
      P.Descendants
        { doc = Dblp.doc_name 0; anchor = None; tag = Some "author"; k = 5; max_dist = None };
      P.Connected { a = root0; b = root0 + 1; max_dist = None };
      P.Evaluate { start_tag = "article"; target_tag = "author"; k = 5; max_dist = None };
      P.Ancestors { node = root0 + 2; tag = None; k = 5; max_dist = None };
    ]
  in
  let scrape name server =
    let c = Client.connect ~port:(Server.port server) () in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        List.iter (fun req -> ignore (Client.request c req)) requests;
        match Client.metrics c with
        | Ok (Client.Value lines) -> f name (metrics_shape lines)
        | _ -> Alcotest.failf "%s: METRICS failed" name)
  in
  let memory = Server.start (Lazy.force shared_flix) in
  Fun.protect
    ~finally:(fun () -> Server.stop memory)
    (fun () -> scrape "memory" memory);
  with_disk_server coll (scrape "disk");
  with_cluster (fun ~coord:_ ~front ~shard_servers:_ -> scrape "coordinator" front)

(* Every deployment's METRICS keeps the series it exported when this
   shape was recorded (test/metrics_shape/<deployment>.txt): a lost,
   renamed, reordered or relabelled series fails here. *)
let metrics_shape_unchanged () =
  each_metrics_shape (fun name shape ->
      let want =
        In_channel.with_open_text (Filename.concat "metrics_shape" (name ^ ".txt"))
          In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      Alcotest.(check (list string)) (name ^ " METRICS shape") want shape)

(* --- protocol satellites --------------------------------------------- *)

let deadline_override () =
  let server = Server.start (Lazy.force shared_flix) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* Default deadline (2 s) would let this nap finish; the
             envelope must cut it short. *)
          (match Client.request ~deadline_ms:0 c (P.Sleep 400) with
          | Ok (P.Items { timed_out = true; _ }) -> ()
          | Ok r ->
              Alcotest.failf "DEADLINE 0 SLEEP should time out, got %s"
                (String.concat "|" (P.response_lines r))
          | Error e -> Alcotest.failf "transport error: %s" e);
          (* And without the envelope the same nap completes. *)
          match Client.request c (P.Sleep 1) with
          | Ok P.Ok_done -> ()
          | _ -> Alcotest.fail "un-overridden sleep should complete"))

let incremental_flush () =
  (* A backend whose EVALUATE stream yields one item, then blocks until
     released.
     If the server buffered the stream until evaluation finished, the
     client could never read the first ITEM while the worker is still
     blocked — the receive timeout below would trip instead. *)
  let m = Mutex.create () and cond = Condition.create () and released = ref false in
  let release () =
    Mutex.lock m;
    released := true;
    Condition.signal cond;
    Mutex.unlock m
  in
  let blocking_stream () =
    let pulls = ref 0 in
    let next () =
      incr pulls;
      match !pulls with
      | 1 -> Some { P.node = 1; dist = 0; meta = 0 }
      | 2 ->
          Mutex.lock m;
          while not !released do
            Condition.wait cond m
          done;
          Mutex.unlock m;
          Some { P.node = 2; dist = 1; meta = 0 }
      | _ -> None
    in
    { Server.next; flags = (fun () -> { timed_out = false; partial = false }) }
  in
  let backend =
    {
      (Server.memory (Lazy.force shared_flix)) with
      evaluate = (fun ~deadline_ns:_ ~start_tag:_ ~target_tag:_ ~k:_ ~max_dist:_ ->
        blocking_stream ());
    }
  in
  let server = Server.start_backend backend in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
          let oc = Unix.out_channel_of_descr fd in
          let ic = Unix.in_channel_of_descr fd in
          output_string oc "EVALUATE a b 10\n";
          flush oc;
          Alcotest.(check string) "first item flushed while eval still runs" "ITEM 1 0 0"
            (input_line ic);
          release ();
          Alcotest.(check string) "second item" "ITEM 2 1 0" (input_line ic);
          Alcotest.(check string) "trailer" "DONE 2" (input_line ic)))

let client_recv_timeout () =
  (* A server that answers too slowly must surface as a transport error
     on the client within the receive timeout — this is what keeps a
     hung shard from wedging the coordinator's connection pool. *)
  let config = { Server.default_config with deadline_ms = 10_000.0 } in
  let server = Server.start ~config (Lazy.force shared_flix) in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = Client.connect ~recv_timeout:0.15 ~port:(Server.port server) () in
      let t0 = Fx_util.Stopwatch.now_ns () in
      (match Client.sleep c 5_000 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "read should have timed out");
      let waited_ms =
        Int64.to_float (Int64.sub (Fx_util.Stopwatch.now_ns ()) t0) /. 1e6
      in
      Alcotest.(check bool) "timed out promptly, not at the response" true
        (waited_ms < 2_000.0);
      Client.close c;
      (* The server is unharmed; a fresh client gets served. *)
      let c2 = Client.connect ~port:(Server.port server) () in
      Alcotest.(check bool) "server unaffected" true (Client.ping c2);
      Client.close c2)

let () =
  Alcotest.run "shard"
    [
      ( "plan",
        [
          Alcotest.test_case "plan invariants" `Quick plan_invariants;
          Alcotest.test_case "manifest round-trip" `Quick manifest_roundtrip;
          Alcotest.test_case "manifest v2 round-trip" `Quick manifest_v2_roundtrip;
        ] );
      ( "closure",
        [
          Alcotest.test_case "closure matches single server" `Quick
            closure_matches_single_server;
          Alcotest.test_case "closure exact on three shards" `Quick closure_three_shards;
          enumerator_matches_pairwise;
          Alcotest.test_case "lazy portal opening" `Quick lazy_portal_opening;
          Alcotest.test_case "shards named by host name" `Quick hostname_shards;
          Alcotest.test_case "leg sets answer repeats" `Quick leg_sets_answer_repeats;
          Alcotest.test_case "names from the plan" `Quick names_from_plan;
          Alcotest.test_case "warm streams replay cold bytes" `Quick
            warm_streams_replay_cold_bytes;
          Alcotest.test_case "probe cache overflow keeps answers" `Quick
            probe_cache_overflow;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "coordinator matches single server" `Quick
            coordinator_matches_single_server;
          Alcotest.test_case "dead shard degrades to PARTIAL" `Quick dead_shard_degrades;
          Alcotest.test_case "query cache hits" `Quick query_cache_hits;
          Alcotest.test_case "batch size per round trip" `Quick batch_size_per_round_trip;
          Alcotest.test_case "dead shard: DESCENDANTS by name" `Quick
            dead_shard_descendants_by_name;
          Alcotest.test_case "anchored name waits for a full shard" `Quick
            anchored_name_waits_for_full_shard;
          Alcotest.test_case "timed-out stream is not replayed" `Quick
            timed_out_stream_not_replayed;
          Alcotest.test_case "dead shard does not poison caches" `Quick
            dead_shard_no_cache_poison;
        ] );
      ( "front",
        [
          Alcotest.test_case "same rules on every backend" `Quick front_rules_every_backend;
          Alcotest.test_case "unknown tags on every backend" `Quick unknown_tags_every_backend;
          Alcotest.test_case "METRICS shape on every backend" `Quick metrics_shape_unchanged;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "DEADLINE override" `Quick deadline_override;
          Alcotest.test_case "incremental ITEM flushing" `Quick incremental_flush;
          Alcotest.test_case "client receive timeout" `Quick client_recv_timeout;
        ] );
    ]
