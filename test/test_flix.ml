(* Tests for the FliX framework: meta-document construction, the four
   configurations, strategy selection, index building, the PEE and the
   facade. The central property, checked for every configuration on
   random collections: the PEE's result SET equals BFS ground truth on
   the full collection graph — partitioning and run-time link chasing
   must never lose or duplicate results — while ordering is approximate
   (exact per meta-document block). *)

module C = Fx_xml.Collection
module X = Fx_xml.Xml_types
module MD = Fx_flix.Meta_document
module MB = Fx_flix.Meta_builder
module SS = Fx_flix.Strategy_selector
module IB = Fx_flix.Index_builder
module Pee = Fx_flix.Pee
module RS = Fx_flix.Result_stream
module Stats = Fx_flix.Stats
module Flix = Fx_flix.Flix
module Digraph = Fx_graph.Digraph
module Traversal = Fx_graph.Traversal
module H = Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse name s = Fx_xml.Xml_parser.parse_exn ~name s

(* A hand-written collection mirroring the paper's Figure 1: documents
   1-4 form a tree via root links, 5-7 are densely interlinked, with a
   bridge 5 -> 4. *)
let figure1 () =
  C.build
    [
      parse "doc1" {|<a><b href="doc2"/><c href="doc3"/></a>|};
      parse "doc2" {|<a><b/><c href="doc4"/></a>|};
      parse "doc3" {|<a><b/></a>|};
      parse "doc4" {|<a><b/><c/></a>|};
      parse "doc5"
        {|<p id="p5"><q href="doc6#x6"/><r href="doc7"/><s href="doc4"/><t idref="p5"/></p>|};
      parse "doc6" {|<p><q id="x6" href="doc7#x7"/><r href="doc5"/></p>|};
      parse "doc7" {|<p><q id="x7" href="doc5"/></p>|};
    ]

let all_configs =
  [
    MB.Naive;
    MB.Maximal_ppo;
    MB.Spanning_ppo;
    MB.Unconnected_hopi { max_size = 6 };
    MB.Unconnected_hopi { max_size = 1000 };
    MB.Hybrid { max_size = 8; min_tree_size = 4 };
  ]

(* --- meta documents ------------------------------------------------------ *)

let registry_invariants c (reg : MD.registry) =
  let n = C.n_nodes c in
  (* Every node in exactly one meta document, local ids consistent. *)
  let seen = Array.make n 0 in
  Array.iter
    (fun (m : MD.t) ->
      Array.iteri
        (fun l v ->
          seen.(v) <- seen.(v) + 1;
          check_int "meta_of_node" m.id reg.meta_of_node.(v);
          check_int "local_of_node" l reg.local_of_node.(v);
          check_int "global_of_local" v (MD.global_of_local m l))
        m.nodes)
    reg.metas;
  Array.iter (fun k -> check_int "node covered once" 1 k) seen;
  (* Documents are never split. *)
  for v = 1 to n - 1 do
    if C.doc_of_node c v = C.doc_of_node c (v - 1) then
      check "doc not split" true (reg.meta_of_node.(v) = reg.meta_of_node.(v - 1))
  done;
  (* Internal edges + out-links = tree edges + links of the collection. *)
  let internal = Array.fold_left (fun a (m : MD.t) -> a + Digraph.n_edges m.graph) 0 reg.metas in
  let out = MD.total_out_links reg in
  let expected = Digraph.n_edges (C.tree_graph c) + List.length (C.links c) in
  (* Digraph collapses duplicate edges, so internal can undercount. *)
  check "edge conservation" true (internal + out <= expected && internal + out >= expected - 2);
  (* Link bitsets match the out_links arrays. *)
  Array.iter
    (fun (m : MD.t) ->
      Array.iteri
        (fun l targets ->
          check "link_nodes bitset" true
            (Fx_graph.Bitset.mem m.link_nodes l = (targets <> [])))
        m.out_links)
    reg.metas

let test_registry_invariants_fig1 () =
  List.iter (fun cfg -> registry_invariants (figure1 ()) (MB.build cfg (figure1 ()))) all_configs

let test_naive_one_meta_per_doc () =
  let c = figure1 () in
  let reg = MB.build MB.Naive c in
  check_int "7 metas" 7 (Array.length reg.metas);
  (* All inter-document links become run-time links; intra links stay in. *)
  check_int "run-time links = inter links" (C.n_inter_links c) (MD.total_out_links reg)

let test_maximal_ppo_forests () =
  let c = figure1 () in
  let reg = MB.build MB.Maximal_ppo c in
  (* Docs 1-4 should merge into one tree meta document. *)
  let meta_of_doc d = reg.meta_of_node.(C.root_of_doc c d) in
  check "1+2 merged" true (meta_of_doc 0 = meta_of_doc 1);
  check "2+4 merged" true (meta_of_doc 1 = meta_of_doc 3);
  check "1+3 merged" true (meta_of_doc 0 = meta_of_doc 2);
  check "5 apart" true (meta_of_doc 4 <> meta_of_doc 0);
  (* Every meta document of a Maximal-PPO build is a forest. *)
  Array.iter (fun (m : MD.t) -> check "forest" true (Traversal.is_forest m.graph)) reg.metas

let test_maximal_ppo_accepted_links_are_tree_edges () =
  let c = figure1 () in
  let doc_part, accepted = MB.maximal_ppo_plan c in
  (* accepted links stay within one doc-class and point at roots *)
  Hashtbl.iter
    (fun (src, dst) () ->
      check "same class" true
        (doc_part.(C.doc_of_node c src) = doc_part.(C.doc_of_node c dst));
      check "dst is root" true (C.root_of_doc c (C.doc_of_node c dst) = dst))
    accepted

let test_unconnected_hopi_size_bound () =
  let c = figure1 () in
  let reg = MB.build (MB.Unconnected_hopi { max_size = 6 }) c in
  Array.iter
    (fun (m : MD.t) ->
      (* A single document may exceed the bound; multi-doc metas not. *)
      let docs =
        List.sort_uniq compare (Array.to_list (Array.map (C.doc_of_node c) m.nodes))
      in
      if List.length docs > 1 then check "size bound" true (MD.n_nodes m <= 6))
    reg.metas

let test_hybrid_mixes () =
  let c = figure1 () in
  let reg = MB.build (MB.Hybrid { max_size = 8; min_tree_size = 4 }) c in
  let built = IB.build reg in
  let strategies = List.map fst (IB.strategy_histogram built) in
  check "has PPO" true (List.exists (fun s -> s = "PPO") strategies);
  check "has a graph strategy" true
    (List.exists (fun s -> s <> "PPO") strategies)

let test_spanning_ppo_single_meta () =
  let c = figure1 () in
  let reg = MB.build MB.Spanning_ppo c in
  check_int "one meta document" 1 (Array.length reg.metas);
  (* Accepted links became tree edges; everything else is run-time. *)
  check "forest" true (Traversal.is_forest reg.metas.(0).MD.graph);
  let built = IB.build reg in
  check "indexed with PPO" true
    (List.mem ("PPO", 1) (IB.strategy_histogram built))

(* --- auto configuration ----------------------------------------------------- *)

let test_auto_config_per_workload () =
  let dblp =
    Fx_workload.Dblp_gen.collection { Fx_workload.Dblp_gen.default with n_docs = 300 }
  in
  let inex = Fx_workload.Inex_gen.collection Fx_workload.Inex_gen.default in
  let web = Fx_workload.Web_gen.collection Fx_workload.Web_gen.default in
  let dense =
    Fx_workload.Web_gen.collection
      { Fx_workload.Web_gen.default with n_tree_docs = 0; bridges = 0 }
  in
  (* The decisions the paper prescribes per collection shape. *)
  check "DBLP -> maximal PPO" true (Fx_flix.Auto_config.configure dblp = MB.Maximal_ppo);
  check "INEX -> naive" true (Fx_flix.Auto_config.configure inex = MB.Naive);
  (match Fx_flix.Auto_config.configure web with
  | MB.Hybrid _ -> ()
  | other -> Alcotest.failf "web mix -> %s, expected hybrid" (MB.config_to_string other));
  match Fx_flix.Auto_config.configure dense with
  | MB.Unconnected_hopi _ -> ()
  | other -> Alcotest.failf "dense -> %s, expected unconnected" (MB.config_to_string other)

let test_auto_config_analysis_fields () =
  let c = Fx_workload.Dblp_gen.collection { Fx_workload.Dblp_gen.default with n_docs = 200 } in
  let a = Fx_flix.Auto_config.analyse c in
  check_int "docs" 200 a.n_docs;
  check_int "elements" (C.n_nodes c) a.n_elements;
  check "shares in [0,1]" true
    (List.for_all
       (fun x -> x >= 0.0 && x <= 1.0)
       [ a.intra_link_share; a.root_link_share; a.tree_doc_share; a.linked_doc_share;
         a.mergeable_share ]);
  (* DBLP: all links inter-document and root-targeted. *)
  Alcotest.(check (float 1e-9)) "no intra" 0.0 a.intra_link_share;
  Alcotest.(check (float 1e-9)) "all to roots" 1.0 a.root_link_share;
  check "analysis renders" true
    (String.length (Format.asprintf "%a" Fx_flix.Auto_config.pp_analysis a) > 0)

let test_auto_config_empty_collection () =
  let c = C.build [] in
  check "empty -> naive" true (Fx_flix.Auto_config.configure c = MB.Naive)

(* --- strategy selector ------------------------------------------------------ *)

let test_selector_auto () =
  let c = figure1 () in
  let reg = MB.build MB.Naive c in
  Array.iter
    (fun (m : MD.t) ->
      match SS.select SS.default_auto m with
      | SS.PPO -> check "ppo only for forests" true (Traversal.is_forest m.graph)
      | SS.TC -> check "tc only for small" true (MD.n_nodes m <= 64)
      | SS.HOPI _ | SS.APEX -> ())
    reg.metas

let test_selector_force_and_custom () =
  let c = figure1 () in
  let reg = MB.build MB.Naive c in
  let m = reg.metas.(0) in
  check "force" true (SS.select (SS.Force SS.APEX) m = SS.APEX);
  check "custom" true
    (SS.select (SS.Custom (fun _ -> SS.TC)) m = SS.TC)

let test_selector_estimate () =
  let c = figure1 () in
  let reg = MB.build MB.Naive c in
  let est = SS.estimate_closure_pairs reg.metas.(0) in
  check "estimate positive" true (est > 0.0)

(* --- index builder ------------------------------------------------------------ *)

let test_builder_fallback () =
  let c = figure1 () in
  let reg = MB.build MB.Naive c in
  (* Forcing PPO on doc5 (which has an intra link cycle) must fall back. *)
  let built = IB.build ~policy:(SS.Force SS.PPO) reg in
  let fallbacks = Array.to_list built.indexes |> List.filter (fun b -> b.IB.fallback) in
  check "some fallback" true (fallbacks <> []);
  List.iter
    (fun (b : IB.built) ->
      check "fallback is HOPI" true (b.strategy = SS.HOPI { partition_size = 5000 }))
    fallbacks

let test_builder_parallel_equivalent () =
  let c = figure1 () in
  let reg = MB.build (MB.Unconnected_hopi { max_size = 6 }) c in
  let seq = IB.build ~jobs:1 reg in
  let par = IB.build ~jobs:4 reg in
  check "same histogram" true (IB.strategy_histogram seq = IB.strategy_histogram par);
  check_int "same total entries" (IB.total_entries seq) (IB.total_entries par);
  (* Same answers through the PEE. *)
  let nodes built start =
    RS.to_list (Pee.descendants (Pee.create built) ~start)
    |> List.map (fun (it : Pee.item) -> (it.node, it.dist))
    |> List.sort compare
  in
  for start = 0 to C.n_nodes c - 1 do
    check "same results" true (nodes seq start = nodes par start)
  done

let test_builder_report () =
  let c = figure1 () in
  let built = IB.build (MB.build MB.Naive c) in
  let r = IB.report built in
  check "mentions meta documents" true
    (String.length r > 0 && String.index_opt r 'm' <> None);
  check "positive size" true (IB.total_size_bytes built > 0);
  check "positive entries" true (IB.total_entries built > 0)

(* --- PEE --------------------------------------------------------------------------- *)

let ground_truth_descendants c start want =
  Traversal.descendants_by_tag (C.graph c) ~tag:(C.tag c) start
    (Option.bind want (C.tag_id c))
  |> List.filter (fun (v, d) -> not (v = start && d = 0))

let pee_of c cfg =
  let reg = MB.build cfg c in
  Pee.create (IB.build reg)

let pee_set_equals_truth c cfg start want =
  let pee = pee_of c cfg in
  let tag = Option.bind want (C.tag_id c) in
  let results = RS.to_list (Pee.descendants ?tag pee ~start) in
  let got = List.map (fun (it : Pee.item) -> it.node) results in
  let truth = List.map fst (ground_truth_descendants c start want) in
  List.sort_uniq compare got = List.sort_uniq compare truth
  && List.length got = List.length (List.sort_uniq compare got)

let test_pee_fig1_all_configs () =
  let c = figure1 () in
  List.iter
    (fun cfg ->
      for start = 0 to C.n_nodes c - 1 do
        check "set = truth (wildcard)" true (pee_set_equals_truth c cfg start None);
        check "set = truth (tag b)" true (pee_set_equals_truth c cfg start (Some "b"))
      done)
    all_configs

let test_pee_distances_are_exact_in_fig1_tree () =
  (* Inside the merged Maximal-PPO tree all distances are exact. *)
  let c = figure1 () in
  let pee = pee_of c MB.Maximal_ppo in
  let start = C.root_of_doc c 0 in
  let results = RS.to_list (Pee.descendants pee ~start) in
  List.iter
    (fun (it : Pee.item) ->
      match Traversal.distance (C.graph c) start it.node with
      | Some d -> check "distance exact or upper bound" true (it.dist >= d)
      | None -> Alcotest.fail "unreachable result")
    results

let test_pee_max_dist () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let start = C.root_of_doc c 0 in
  let results = RS.to_list (Pee.descendants ~max_dist:2 pee ~start) in
  check "nonempty" true (results <> []);
  List.iter (fun (it : Pee.item) -> check "within bound" true (it.dist <= 2)) results;
  (* everything at true distance <= 2 must be there (reported dist is an
     upper bound, so this is the stronger check) *)
  let truth =
    ground_truth_descendants c start None |> List.filter (fun (_, d) -> d <= 2)
  in
  check "at least close truth"
    true
    (List.for_all
       (fun (v, d) ->
         d > 2 || List.exists (fun (it : Pee.item) -> it.node = v) results
         || d = 2 (* a 2-hop path through another meta doc may cost a link hop *))
       truth)

let test_pee_include_self () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let start = C.root_of_doc c 0 in
  let without = RS.to_list (Pee.descendants pee ~start) in
  let with_self = RS.to_list (Pee.descendants ~include_self:true pee ~start) in
  check "self excluded by default" true
    (not (List.exists (fun (it : Pee.item) -> it.node = start && it.dist = 0) without));
  check "self included on demand" true
    (List.exists (fun (it : Pee.item) -> it.node = start && it.dist = 0) with_self)

let test_pee_streaming_is_lazy () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let stream = Pee.descendants pee ~start:(C.root_of_doc c 0) in
  (* Pull one result; insertions so far must be far below the total. *)
  check "first result exists" true (RS.next stream <> None);
  let ins1, _ = Pee.queue_stats pee in
  ignore (RS.to_list stream);
  let ins2, _ = Pee.queue_stats pee in
  check "work grows as we pull" true (ins2 >= ins1)

let test_pee_multi () =
  let c = figure1 () in
  let pee = pee_of c MB.Maximal_ppo in
  let starts = C.find_by_tag c "p" in
  let results = RS.to_list (Pee.descendants_multi ~tag:(C.tag_id c "q" |> Option.get) pee ~starts) in
  (* every q reachable from some p with dist > 0 appears *)
  let truth =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (v, d) -> if d > 0 then Some v else None)
          (ground_truth_descendants c s (Some "q")))
      starts
    |> List.sort_uniq compare
  in
  let got = List.sort_uniq compare (List.map (fun (it : Pee.item) -> it.node) results) in
  check "multi covers truth" true (got = truth)

(* 250 documents with one [p] root each. The first ten hold no [q] and
   link in a ring, so each of their starts pushes one link; every later
   document has a [q] child. *)
let many_starts () =
  let name i = Printf.sprintf "m%03d" i in
  C.build
    (List.init 250 (fun i ->
         if i < 10 then
           parse (name i) (Printf.sprintf {|<p><r href="%s"/></p>|} (name ((i + 1) mod 10)))
         else parse (name i) "<p><q/></p>"))

(* A//B reads its starts lazily: one result costs the starts before the
   first productive one, not a queue insertion per start, and ties among
   the priority-0 starts break in document order. *)
let test_evaluate_lazy_starts () =
  let c = many_starts () in
  let f = Flix.build ~config:MB.Naive c in
  let starts = C.find_by_tag c "p" in
  let ins0, _ = Pee.queue_stats (Flix.pee f) in
  let first = RS.take 1 (Flix.evaluate f ~start_tag:"p" ~target_tag:"q") in
  let ins1, _ = Pee.queue_stats (Flix.pee f) in
  check "fewer insertions than starts" true (ins1 - ins0 < List.length starts);
  let productive =
    List.find (fun s -> ground_truth_descendants c s (Some "q") <> []) starts
  in
  match first with
  | [ (it : Pee.item) ] ->
      check "first item from the first productive start" true
        (List.mem_assoc it.node (ground_truth_descendants c productive (Some "q")));
      check_int "at its true distance" 1 it.dist
  | _ -> Alcotest.fail "expected one item"

(* A negative tag is the id of no element (an unknown name resolves to
   -1): every evaluator answers nothing and pushes nothing, where a
   search would walk everything reachable only to match no element. *)
let test_pee_negative_tag () =
  let c = figure1 () in
  let starts = List.init (C.n_nodes c) Fun.id in
  List.iter
    (fun cfg ->
      let pee = pee_of c cfg in
      List.iter
        (fun tag ->
          List.iter
            (fun start ->
              List.iter
                (fun stream -> check "no items" true (RS.to_list stream = []))
                [
                  Pee.descendants ~tag pee ~start;
                  Pee.descendants ~tag ~include_self:true pee ~start;
                  Pee.ancestors ~tag ~include_self:true pee ~start;
                  Pee.descendants_exact ~tag ~include_self:true pee ~start;
                  Pee.ancestors_exact ~tag ~include_self:true pee ~start;
                ])
            starts;
          check "multi: no items" true (RS.to_list (Pee.descendants_multi ~tag pee ~starts) = []))
        [ -1; min_int ];
      Alcotest.(check (pair int int)) "nothing pushed or dropped" (0, 0) (Pee.queue_stats pee))
    all_configs

(* max_dist below 0 rules out even the priority-0 starts: the first pop
   ends the search before anything is inserted or dropped. *)
let test_evaluate_negative_max_dist () =
  let c = many_starts () in
  let f = Flix.build ~config:MB.Naive c in
  let ins0, drops0 = Pee.queue_stats (Flix.pee f) in
  let s = Flix.evaluate ~max_dist:(-1) f ~start_tag:"p" ~target_tag:"q" in
  check "no items" true (RS.to_list s = []);
  check "stays ended" true (RS.next s = None);
  let ins1, drops1 = Pee.queue_stats (Flix.pee f) in
  check_int "no insertions" 0 (ins1 - ins0);
  check_int "no entry drops" 0 (drops1 - drops0)

let test_pee_ancestors () =
  let c = figure1 () in
  List.iter
    (fun cfg ->
      let pee = pee_of c cfg in
      for v = 0 to C.n_nodes c - 1 do
        let got =
          RS.to_list (Pee.ancestors pee ~start:v)
          |> List.map (fun (it : Pee.item) -> it.node)
          |> List.sort_uniq compare
        in
        let truth =
          Traversal.descendants (Digraph.reverse (C.graph c)) v
          |> List.filter (fun (u, d) -> not (u = v && d = 0))
          |> List.map fst |> List.sort_uniq compare
        in
        check "ancestors = reverse truth" true (got = truth)
      done)
    [ MB.Naive; MB.Maximal_ppo; MB.Unconnected_hopi { max_size = 6 } ]

let test_pee_exact_ordering () =
  (* The exact engine must return every reachable node at its TRUE
     shortest distance, in exactly ascending order — for every config
     and every start node of figure 1. *)
  let c = figure1 () in
  List.iter
    (fun cfg ->
      let pee = pee_of c cfg in
      for start = 0 to C.n_nodes c - 1 do
        let results = RS.to_list (Pee.descendants_exact ~include_self:true pee ~start) in
        check "exactly sorted" true
          (H.sorted_by_dist_list (List.map (fun (it : Pee.item) -> it.dist) results));
        let truth = Traversal.bfs_distances (C.graph c) start in
        List.iter
          (fun (it : Pee.item) ->
            check "distance is exact" true (truth.(it.node) = it.dist))
          results;
        (* completeness & no duplicates *)
        let got = List.map (fun (it : Pee.item) -> it.node) results in
        let expected =
          List.filteri (fun _ d -> d >= 0) (Array.to_list truth)
          |> List.length
        in
        ignore expected;
        let expected_nodes =
          Array.to_list (Array.mapi (fun v d -> (v, d)) truth)
          |> List.filter_map (fun (v, d) -> if d >= 0 then Some v else None)
        in
        check "complete, duplicate-free" true
          (List.sort compare got = expected_nodes
          && List.length got = List.length (List.sort_uniq compare got))
      done)
    all_configs

let test_pee_ancestors_exact () =
  let c = figure1 () in
  let pee = pee_of c MB.Maximal_ppo in
  let rev = Digraph.reverse (C.graph c) in
  for start = 0 to C.n_nodes c - 1 do
    let truth = Traversal.bfs_distances rev start in
    let results = RS.to_list (Pee.ancestors_exact ~include_self:true pee ~start) in
    List.iter
      (fun (it : Pee.item) -> check "ancestor distance exact" true (truth.(it.node) = it.dist))
      results
  done

let test_pee_connected () =
  let c = figure1 () in
  List.iter
    (fun cfg ->
      let pee = pee_of c cfg in
      for a = 0 to C.n_nodes c - 1 do
        for b = 0 to C.n_nodes c - 1 do
          let truth = Traversal.distance (C.graph c) a b in
          let got = Pee.connected pee a b in
          check "connected iff reachable" true ((got <> None) = (truth <> None));
          (match (got, truth) with
          | Some g, Some t -> check "upper bound" true (g >= t)
          | None, None -> ()
          | _ -> Alcotest.fail "reachability mismatch");
          check "bidir agrees" true (Pee.connected_bidir pee a b = (truth <> None))
        done
      done)
    all_configs

let test_pee_connected_max_dist () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  (* doc1 root reaches doc4's children in 3-4 hops via link chain. *)
  let a = C.root_of_doc c 0 in
  let b = C.root_of_doc c 3 in
  check "within generous bound" true (Pee.connected ~max_dist:10 pee a b <> None);
  check "cut by tight bound" true (Pee.connected ~max_dist:1 pee a b = None)

(* Random collections: generate documents with random tree shape and
   random links, compare all configurations against ground truth. *)
let random_collection_gen =
  let open QCheck.Gen in
  int_range 2 6 >>= fun n_docs ->
  int_range 0 20 >>= fun n_links ->
  int_range 0 1000 >>= fun seed ->
  return (n_docs, n_links, seed)

let random_collection (n_docs, n_links, seed) =
  let rng = Fx_util.Rng.create seed in
  let tags = [| "a"; "b"; "c" |] in
  let docs =
    List.init n_docs (fun i ->
        let counter = ref 0 in
        let rec el depth =
          incr counter;
          let id = Printf.sprintf "e%d" !counter in
          let children =
            if depth = 0 then []
            else List.init (Fx_util.Rng.int rng 3) (fun _ -> X.Element (el (depth - 1)))
          in
          X.elt tags.(Fx_util.Rng.int rng 3) ~attrs:[ ("id", id) ] children
        in
        let root = el 2 in
        (X.document ~name:(Printf.sprintf "doc%d" i) root, !counter))
  in
  (* Inject links by rewriting: easier to add link children to roots. *)
  let with_links =
    List.mapi
      (fun i (d, n_el) ->
        let links =
          List.init n_links (fun _ ->
              if Fx_util.Rng.int rng n_docs = i then
                (* intra link to a random element *)
                let t = 1 + Fx_util.Rng.int rng n_el in
                Some (X.e "l" ~attrs:[ ("idref", Printf.sprintf "e%d" t) ] [])
              else if Fx_util.Rng.bool rng then begin
                let target = Fx_util.Rng.int rng n_docs in
                let anchor = 1 + Fx_util.Rng.int rng 3 in
                Some
                  (X.e "l"
                     ~attrs:
                       [ ("xlink:href", Printf.sprintf "doc%d#e%d" target anchor) ]
                     [])
              end
              else None)
          |> List.filter_map Fun.id
        in
        let root = d.X.root in
        { d with X.root = { root with X.children = root.children @ links } })
      docs
  in
  C.build with_links

let prop_pee_random_collections =
  H.qtest ~count:40 "PEE set = BFS truth on random collections"
    (QCheck.make ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) random_collection_gen)
    (fun params ->
      let c = random_collection params in
      List.for_all
        (fun cfg ->
          List.for_all
            (fun start ->
              pee_set_equals_truth c cfg start None
              && pee_set_equals_truth c cfg start (Some "b"))
            [ 0; C.n_nodes c / 2; C.n_nodes c - 1 ])
        [ MB.Naive; MB.Maximal_ppo; MB.Unconnected_hopi { max_size = 8 };
          MB.Hybrid { max_size = 8; min_tree_size = 3 } ])

(* [A//B] reads its starts in place from the collection's per-tag row;
   the list path ([find_by_tag] into [descendants_multi]) is the oracle:
   the same items in the same order, at k 1, 20 and all, for tag pairs
   drawn from each generator's collections. *)
let prop_evaluate_slice name generate =
  H.qtest ~count:5 ("A//B from the tag row = from the start list, " ^ name)
    QCheck.(triple (int_range 0 10_000) small_nat small_nat)
    (fun (seed, a, b) ->
      let c = C.build (generate seed) in
      let f = Flix.build c in
      let tag_name i = C.tag_name c (i mod C.n_tags c) in
      let pairs =
        [ (tag_name a, tag_name b); (tag_name b, tag_name a); (tag_name a, "no-such-tag") ]
      in
      List.for_all
        (fun (start_tag, target_tag) ->
          let by_list () =
            Pee.descendants_multi
              ~tag:(Option.value ~default:(-1) (C.tag_id c target_tag))
              (Pee.create (Flix.built f))
              ~starts:(C.find_by_tag c start_tag)
          in
          List.for_all
            (fun k ->
              RS.take k (Flix.evaluate f ~start_tag ~target_tag) = RS.take k (by_list ()))
            [ 1; 20; max_int ])
        pairs)

let prop_evaluate_slice_dblp =
  prop_evaluate_slice "dblp" (fun seed ->
      Fx_workload.Dblp_gen.(generate { default with n_docs = 120; seed }))

let prop_evaluate_slice_inex =
  prop_evaluate_slice "inex" (fun seed ->
      Fx_workload.Inex_gen.(generate { default with n_docs = 20; seed }))

let prop_evaluate_slice_web =
  prop_evaluate_slice "web" (fun seed -> Fx_workload.Web_gen.(generate { default with seed }))

(* --- document-level reachability filter ------------------------------------ *)

module RF = Fx_graph.Reach_filter

(* [random_collection] plus a leading document with an element that
   links to itself, a link into doc0 and a dangling reference. *)
let random_linked_collection params =
  let extra =
    parse "extra" {|<x id="s" idref="s"><y href="doc0#e1"/><z href="nowhere"/></x>|}
  in
  C.build (extra :: C.documents (random_collection params))

(* For every configuration, Element_level included: each pair the filter
   rules out is BFS-unreachable, and the filtered connection tests still
   agree with BFS reachability (as [test_pee_connected] checks on fig1). *)
let prop_reach_filter_sound =
  H.qtest ~count:30 "reach filter rejects only BFS-unreachable pairs"
    (QCheck.make ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) random_collection_gen)
    (fun ((_, _, seed) as params) ->
      let c = random_linked_collection params in
      let n = C.n_nodes c in
      let truth = Array.init n (fun a -> Traversal.bfs_distances (C.graph c) a) in
      let rng = Fx_util.Rng.create seed in
      let sample = List.init 150 (fun _ -> (Fx_util.Rng.int rng n, Fx_util.Rng.int rng n)) in
      List.for_all
        (fun cfg ->
          let reg = MB.build cfg c in
          let pee = Pee.create (IB.build reg) in
          let sound = ref true in
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              if (not (RF.may_reach reg.MD.reach a b)) && truth.(a).(b) >= 0 then
                sound := false
            done
          done;
          !sound
          && List.for_all
               (fun (a, b) ->
                 let reachable = truth.(a).(b) >= 0 in
                 (match Pee.connected pee a b with
                 | Some d -> reachable && d >= truth.(a).(b)
                 | None -> not reachable)
                 && Pee.connected_bidir pee a b = reachable)
               sample)
        (MB.Element_level { max_size = 4 } :: all_configs))

(* Guard against the filter silently becoming a no-op: DBLP citations
   only point backwards, so a node of a later document is unreachable
   from an earlier document's root, and the filter must say so. *)
let test_reach_filter_rejects_later_docs () =
  let c = Fx_workload.Dblp_gen.collection { Fx_workload.Dblp_gen.default with n_docs = 200 } in
  let reg = MB.build MB.default_hybrid c in
  let rng = Fx_util.Rng.create 11 in
  let n_docs = C.n_docs c and pairs = 400 in
  let rejected = ref 0 in
  for _ = 1 to pairs do
    let d = Fx_util.Rng.int rng (n_docs - 1) in
    let later = d + 1 + Fx_util.Rng.int rng (n_docs - d - 1) in
    let a = C.root_of_doc c d in
    let b = C.root_of_doc c later + Fx_util.Rng.int rng 3 in
    if not (RF.may_reach reg.MD.reach a b) then begin
      incr rejected;
      check "rejected pair unreachable" true (Traversal.distance (C.graph c) a b = None)
    end
  done;
  check (Printf.sprintf "rejects >= 90%% of later-document pairs (%d/%d)" !rejected pairs) true
    (10 * !rejected >= 9 * pairs);
  check_int "one group per document" n_docs (RF.n_groups reg.MD.reach)

let prop_pee_block_order =
  H.qtest ~count:30 "link-free queries stream in exact distance order"
    (QCheck.make ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) random_collection_gen)
    (fun (n_docs, _, seed) ->
      (* Without links every query is answered by one meta-document
         block, whose ordering guarantee is exact. *)
      let c = random_collection (n_docs, 0, seed) in
      let pee = pee_of c MB.Naive in
      let results = RS.to_list (Pee.descendants pee ~start:0) in
      H.sorted_by_distance (List.map (fun (it : Pee.item) -> (it.node, it.dist)) results))

let prop_pee_exact_random =
  H.qtest ~count:40 "exact engine = BFS distances on random collections"
    (QCheck.make ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) random_collection_gen)
    (fun params ->
      let c = random_collection params in
      List.for_all
        (fun cfg ->
          let pee = pee_of c cfg in
          List.for_all
            (fun start ->
              let truth = Traversal.bfs_distances (C.graph c) start in
              let results =
                RS.to_list (Pee.descendants_exact ~include_self:true pee ~start)
              in
              List.for_all (fun (it : Pee.item) -> truth.(it.node) = it.dist) results
              && H.sorted_by_dist_list (List.map (fun (it : Pee.item) -> it.dist) results))
            [ 0; C.n_nodes c - 1 ])
        [ MB.Naive; MB.Maximal_ppo; MB.Unconnected_hopi { max_size = 8 } ])


(* --- element-level meta documents (future-work builder) ------------------- *)

let test_element_level_splits_docs () =
  let c = figure1 () in
  let reg = MB.build (MB.Element_level { max_size = 3 }) c in
  (* With a bound of 3 elements, some document must be split. *)
  let split = ref false in
  for v = 1 to C.n_nodes c - 1 do
    if
      C.doc_of_node c v = C.doc_of_node c (v - 1)
      && reg.meta_of_node.(v) <> reg.meta_of_node.(v - 1)
    then split := true
  done;
  check "some document split" true !split;
  Array.iter (fun (m : MD.t) -> check "bound" true (MD.n_nodes m <= 3)) reg.metas

let test_element_level_pee_correct () =
  let c = figure1 () in
  List.iter
    (fun max_size ->
      let cfg = MB.Element_level { max_size } in
      for start = 0 to C.n_nodes c - 1 do
        check "set = truth" true (pee_set_equals_truth c cfg start None)
      done;
      (* exact engine too: distances across split tree edges stay exact *)
      let pee = pee_of c cfg in
      let truth = Traversal.bfs_distances (C.graph c) 0 in
      List.iter
        (fun (it : Pee.item) -> check "exact dist" true (truth.(it.node) = it.dist))
        (RS.to_list (Pee.descendants_exact ~include_self:true pee ~start:0)))
    [ 2; 3; 5; 100 ]

let prop_element_level_random =
  H.qtest ~count:25 "element-level PEE = BFS truth on random collections"
    (QCheck.make ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c) random_collection_gen)
    (fun params ->
      let c = random_collection params in
      List.for_all
        (fun start ->
          pee_set_equals_truth c (MB.Element_level { max_size = 4 }) start None)
        [ 0; C.n_nodes c - 1 ])

(* --- query cache ------------------------------------------------------------ *)

let test_query_cache_replay () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let cache = Fx_flix.Query_cache.create ~capacity:4 pee in
  let start = C.root_of_doc c 0 in
  let run () =
    RS.to_list (Fx_flix.Query_cache.descendants cache ~start)
    |> List.map (fun (it : Pee.item) -> (it.node, it.dist))
  in
  let first = run () in
  let second = run () in
  check "replay identical" true (first = second);
  let s = Fx_flix.Query_cache.stats cache in
  check_int "one hit" 1 s.hits;
  check_int "one miss" 1 s.misses;
  check "hit rate" true (abs_float (s.hit_rate -. 0.5) < 1e-9)

let test_query_cache_keys () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let cache = Fx_flix.Query_cache.create pee in
  let start = C.root_of_doc c 0 in
  let tag_b = Option.get (C.tag_id c "b") in
  let all = RS.to_list (Fx_flix.Query_cache.descendants cache ~start) in
  let only_b = RS.to_list (Fx_flix.Query_cache.descendants cache ~tag:tag_b ~start) in
  let bounded = RS.to_list (Fx_flix.Query_cache.descendants cache ~max_dist:1 ~start) in
  check "different keys differ" true
    (List.length only_b < List.length all && List.length bounded < List.length all);
  check_int "three entries" 3 (Fx_flix.Query_cache.stats cache).entries

let test_query_cache_unconsumed_not_cached () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let cache = Fx_flix.Query_cache.create pee in
  let start = C.root_of_doc c 0 in
  (* Create but never pull: no evaluation, no cache entry. *)
  ignore (Fx_flix.Query_cache.descendants cache ~start);
  check_int "nothing cached" 0 (Fx_flix.Query_cache.stats cache).entries;
  (* Pull one result: the miss materialises the full list and caches it. *)
  ignore (RS.next (Fx_flix.Query_cache.descendants cache ~start));
  check_int "cached after pull" 1 (Fx_flix.Query_cache.stats cache).entries

let test_query_cache_invalidate () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let cache = Fx_flix.Query_cache.create pee in
  let start = C.root_of_doc c 0 in
  ignore (RS.to_list (Fx_flix.Query_cache.descendants cache ~start));
  Fx_flix.Query_cache.invalidate cache;
  check_int "empty after invalidate" 0 (Fx_flix.Query_cache.stats cache).entries

(* --- self-tuning ------------------------------------------------------------- *)

let test_self_tuning_summary () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let mon = Fx_flix.Self_tuning.create pee in
  for d = 0 to C.n_docs c - 1 do
    ignore
      (RS.to_list (Fx_flix.Self_tuning.descendants mon ~start:(C.root_of_doc c d)))
  done;
  let s = Fx_flix.Self_tuning.summary mon in
  check_int "all queries seen" (C.n_docs c) s.queries;
  check "link hops observed" true (s.mean_link_hops > 0.0)

(* Starts are not queue insertions: a leaf start with no links records
   0 link hops, and the root of doc1 under Naive records the link
   pushes counted by hand — doc1's b and c (to the roots of doc2 and
   doc3), then doc2's c (to the root of doc4): 3. *)
let test_self_tuning_link_hops () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let hops start =
    let mon = Fx_flix.Self_tuning.create pee in
    ignore (RS.to_list (Fx_flix.Self_tuning.descendants mon ~start));
    (Fx_flix.Self_tuning.summary mon).mean_link_hops
  in
  let leaf = C.root_of_doc c 2 + 1 in
  check_int "leaf has no children" 0 (Array.length (Digraph.succ (C.graph c) leaf));
  Alcotest.(check (float 0.)) "leaf start" 0. (hops leaf);
  Alcotest.(check (float 0.)) "doc1 root" 3. (hops (C.root_of_doc c 0))

let test_self_tuning_window () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let mon = Fx_flix.Self_tuning.create ~window:5 pee in
  for _ = 1 to 12 do
    ignore (RS.to_list (Fx_flix.Self_tuning.descendants mon ~start:(C.root_of_doc c 0)))
  done;
  check_int "window caps samples" 5 (Fx_flix.Self_tuning.summary mon).queries

let test_self_tuning_recommend () =
  let c = figure1 () in
  let pee = pee_of c MB.Naive in
  let mon = Fx_flix.Self_tuning.create pee in
  (* Too few queries: Keep regardless of pressure. *)
  check "keep when cold" true
    (Fx_flix.Self_tuning.recommend mon ~current:MB.Naive = Fx_flix.Self_tuning.Keep);
  (* Hammer the link-heavy start (doc1 root chases links constantly). *)
  for _ = 1 to 20 do
    ignore (RS.to_list (Fx_flix.Self_tuning.descendants mon ~start:(C.root_of_doc c 0)))
  done;
  (match Fx_flix.Self_tuning.recommend ~pressure_threshold:0.01 mon ~current:MB.Naive with
  | Fx_flix.Self_tuning.Rebuild (MB.Unconnected_hopi _) -> ()
  | Fx_flix.Self_tuning.Rebuild _ | Fx_flix.Self_tuning.Keep ->
      Alcotest.fail "expected escalation from Naive");
  (match
     Fx_flix.Self_tuning.recommend ~pressure_threshold:0.01 mon
       ~current:(MB.Unconnected_hopi { max_size = 100 })
   with
  | Fx_flix.Self_tuning.Rebuild (MB.Unconnected_hopi { max_size }) ->
      check_int "doubled" 200 max_size
  | _ -> Alcotest.fail "expected doubled partitions");
  check "keep under lenient threshold" true
    (Fx_flix.Self_tuning.recommend ~pressure_threshold:1e9 mon ~current:MB.Naive
    = Fx_flix.Self_tuning.Keep)

(* --- incremental extension and rebuild --------------------------------------- *)

let test_extend_reuses_indexes () =
  let c = figure1 () in
  let f = Flix.build ~config:MB.Naive c in
  (* Add a document citing doc1's root: under the Naive config every
     existing meta document's structure is untouched. *)
  let extra = parse "doc8" {|<a><b href="doc1"/></a>|} in
  let f2 = Flix.extend f [ extra ] in
  check_int "all 7 old metas reused" 7 (IB.reused_count (Flix.built f2));
  check_int "docs grew" 8 (C.n_docs (Flix.collection f2));
  (* Queries on the extended collection are correct, including through
     the new document's link. *)
  let c2 = Flix.collection f2 in
  let start = Option.get (Flix.node_of f2 ~doc:"doc8" ~anchor:None) in
  let got =
    RS.to_list (Flix.descendants f2 ~start)
    |> List.map (fun (it : Pee.item) -> it.node)
    |> List.sort_uniq compare
  in
  let truth =
    Traversal.descendants (C.graph c2) start
    |> List.filter (fun (v, d) -> not (v = start && d = 0))
    |> List.map fst |> List.sort_uniq compare
  in
  check "extended query correct" true (got = truth);
  (* The old ids still resolve identically. *)
  check "old anchors stable" true
    (Flix.node_of f ~doc:"doc6" ~anchor:(Some "x6")
    = Flix.node_of f2 ~doc:"doc6" ~anchor:(Some "x6"))

let test_extend_duplicate_name_rejected () =
  let c = figure1 () in
  let f = Flix.build c in
  match Flix.extend f [ parse "doc1" "<a/>" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate name accepted"

let test_remove_documents () =
  let c = figure1 () in
  let f = Flix.build ~config:MB.Naive c in
  let f2 = Flix.remove f [ "doc7"; "nonexistent" ] in
  let c2 = Flix.collection f2 in
  check_int "six docs left" 6 (C.n_docs c2);
  (* Links into doc7 become dangling, queries stay correct. *)
  check "dangling recorded" true (C.dangling_refs c2 <> []);
  for start = 0 to C.n_nodes c2 - 1 do
    let got =
      RS.to_list (Flix.descendants f2 ~start)
      |> List.map (fun (it : Pee.item) -> it.node)
      |> List.sort_uniq compare
    in
    let truth =
      Traversal.descendants (C.graph c2) start
      |> List.filter (fun (v, d) -> not (v = start && d = 0))
      |> List.map fst |> List.sort_uniq compare
    in
    check "correct after removal" true (got = truth)
  done;
  (* Prefix documents (doc1..doc6 precede doc7) are fully reused. *)
  check_int "prefix reuse" 6 (IB.reused_count (Flix.built f2));
  (* Removing nothing returns the same value. *)
  check "no-op removal" true (Flix.remove f [ "nope" ] == f)

let test_rebuild_applies_recommendation () =
  let c = figure1 () in
  let f = Flix.build ~config:MB.Naive c in
  let f2 = Flix.rebuild ~config:(MB.Unconnected_hopi { max_size = 1000 }) f in
  (* Same collection object, fewer meta documents, correct answers. *)
  check "same collection" true (Flix.collection f2 == Flix.collection f);
  check "fewer metas" true
    (Array.length (Flix.registry f2).MD.metas < Array.length (Flix.registry f).MD.metas);
  let start = C.root_of_doc c 0 in
  let nodes stream = List.sort_uniq compare (List.map (fun (it : Pee.item) -> it.node) (RS.to_list stream)) in
  check "answers unchanged" true
    (nodes (Flix.descendants f ~start) = nodes (Flix.descendants f2 ~start))

let test_extend_link_into_old_doc_rebuilds_it () =
  (* MaximalPPO: a new doc citing doc3's root can merge with the old
     tree, changing that meta document; its index must be rebuilt, and
     results must stay correct. *)
  let c = figure1 () in
  let f = Flix.build ~config:MB.Maximal_ppo c in
  let f2 = Flix.extend f [ parse "doc8" {|<a><b href="doc7"/></a>|} ] in
  let c2 = Flix.collection f2 in
  for start = 0 to C.n_nodes c2 - 1 do
    let got =
      RS.to_list (Flix.descendants f2 ~start)
      |> List.map (fun (it : Pee.item) -> it.node)
      |> List.sort_uniq compare
    in
    let truth =
      Traversal.descendants (C.graph c2) start
      |> List.filter (fun (v, d) -> not (v = start && d = 0))
      |> List.map fst |> List.sort_uniq compare
    in
    check "correct after structural change" true (got = truth)
  done

(* A reused or delta-extended index answers for its meta document's
   structure, but the new meta document may bring other link sets, and
   the staged link lookups must follow them. s0 links to s2#t, which
   exists only once s2 is added: under Naive s0's index is reused by
   digest, and again when s2 is removed; under Spanning_ppo the one
   collection-wide PPO is extended in place. Every DESCENDANTS and
   ANCESTORS answer, in order, equals a cold build's. *)
let test_staging_follows_link_sets () =
  let base =
    [ parse "s0" {|<a><b href="s2#t"/><c/></a>|}; parse "s1" {|<a><b/><c href="s0"/></a>|} ]
  in
  let fresh = [ parse "s2" {|<a><c><b id="t"><c/></b></c></a>|} ] in
  let answers f =
    let c = Flix.collection f in
    let items s = List.map (fun (it : Pee.item) -> (it.node, it.dist, it.meta)) (RS.to_list s) in
    let tags = None :: List.init (C.n_tags c) (fun w -> Some (C.tag_name c w)) in
    List.concat_map
      (fun start ->
        List.concat_map
          (fun tag ->
            [ items (Flix.descendants ?tag f ~start); items (Flix.ancestors ?tag f ~start) ])
          tags)
      (List.init (C.n_nodes c) Fun.id)
  in
  let same what f cold =
    Alcotest.(check (list (list (triple int int int)))) what (answers cold) (answers f)
  in
  List.iter
    (fun (cfg, grown_by, shrunk_reuses) ->
      let name = MB.config_to_string cfg in
      let f = Flix.build ~config:cfg (C.build base) in
      let grown = Flix.extend f fresh in
      check_int (name ^ ": extend took the incremental path") 1 (grown_by (Flix.built grown));
      same (name ^ ": grown = cold") grown (Flix.build ~config:cfg (C.build (base @ fresh)));
      let s0 = Option.get (Flix.node_of grown ~doc:"s0" ~anchor:None) in
      let t = Option.get (Flix.node_of grown ~doc:"s2" ~anchor:(Some "t")) in
      check (name ^ ": the new link is followed") true
        (List.exists (fun (it : Pee.item) -> it.node = t) (RS.to_list (Flix.descendants grown ~start:s0)));
      let shrunk = Flix.remove grown [ "s2" ] in
      if shrunk_reuses then
        check (name ^ ": shrunk reuses s0") true (IB.reused_count (Flix.built shrunk) >= 1);
      same (name ^ ": shrunk = cold") shrunk (Flix.build ~config:cfg (C.build base)))
    [
      (MB.Naive, (fun b -> min 1 (IB.reused_count b)), true);
      (MB.Spanning_ppo, IB.extended_count, false);
    ]

(* Every meta document's staged link sets, read node by node in both
   directions, in iteration order. *)
let staged_links (b : IB.t) =
  let iterated links l =
    let acc = ref [] in
    IB.iter_links links l (fun ~link ~dist ->
        acc := (link, dist) :: !acc;
        true);
    List.rev !acc
  in
  Array.map
    (fun (x : IB.built) ->
      List.init (MD.n_nodes x.meta) (fun l -> (iterated x.out_links l, iterated x.in_links l)))
    b.indexes

(* Rebinding a reused index to a new meta document restages its link
   sets, and shares the old PPO rows only when the link set is equal.
   On a DBLP-shaped collection: remove a cited document (the documents
   citing it shift down and lose those links), then ingest it again at
   the end (now their structure is unchanged, so their indexes are
   reused, but their link sets grew back). After every step each
   meta document's link sets equal a fresh build's of the same
   registry, and the re-ingest really rebinds indexes whose link set
   changed. *)
let test_rebound_rows_equal_fresh () =
  let docs = Fx_workload.Dblp_gen.generate { Fx_workload.Dblp_gen.default with n_docs = 150 } in
  let cited = List.nth docs 3 in
  let f = Flix.build (C.build docs) in
  let removed = Flix.remove f [ cited.X.name ] in
  let back = Flix.extend removed [ cited ] in
  let fresh_equal what g =
    let b = Flix.built g in
    let fresh = IB.build (Flix.registry g) in
    check (what ^ ": link sets = a fresh build's") true (staged_links b = staged_links fresh)
  in
  fresh_equal "remove" removed;
  fresh_equal "re-ingest" back;
  let old = Flix.registry removed in
  let changed =
    Array.fold_left
      (fun n (m : MD.t) ->
        match
          Array.find_opt (fun (o : MD.t) -> o.MD.nodes = m.MD.nodes && o.MD.tag = m.MD.tag) old.MD.metas
        with
        | Some o when not (Fx_graph.Bitset.equal o.MD.link_nodes m.MD.link_nodes) -> n + 1
        | Some _ | None -> n)
      0 (Flix.registry back).MD.metas
  in
  check "re-ingest reuses indexes" true (IB.reused_count (Flix.built back) > 0);
  check "some reused index's link set changed" true (changed > 0)

(* --- result stream ------------------------------------------------------------- *)

let test_stream_basics () =
  let count = ref 0 in
  let s =
    RS.of_fn (fun () ->
        incr count;
        if !count <= 3 then Some !count else None)
  in
  check "peek" true (RS.peek s = Some 1);
  check "peek stable" true (RS.peek s = Some 1);
  check "next" true (RS.next s = Some 1);
  Alcotest.(check (list int)) "take" [ 2; 3 ] (RS.take 5 s);
  check "exhausted" true (RS.next s = None);
  check "exhausted stays" true (RS.next s = None)

let test_stream_take_while_map_filter () =
  let mk () =
    let count = ref 0 in
    RS.of_fn (fun () ->
        incr count;
        if !count <= 10 then Some !count else None)
  in
  Alcotest.(check (list int)) "take_while" [ 1; 2; 3 ] (RS.take_while (fun x -> x < 4) (mk ()));
  Alcotest.(check (list int)) "map" [ 2; 4 ] (RS.take 2 (RS.map (fun x -> 2 * x) (mk ())));
  Alcotest.(check (list int)) "filter" [ 2; 4; 6 ]
    (RS.take 3 (RS.filter (fun x -> x mod 2 = 0) (mk ())));
  check_int "to_seq length" 10 (List.length (List.of_seq (RS.to_seq (mk ()))))

let test_stream_timed () =
  let count = ref 0 in
  let s = RS.of_fn (fun () -> incr count; if !count <= 5 then Some !count else None) in
  let timed = RS.take_timed 10 s in
  check_int "five" 5 (List.length timed);
  let times = List.map snd timed in
  check "monotone" true (List.sort compare times = times)

(* --- stats ------------------------------------------------------------------------ *)

let test_error_rate () =
  let dist = function 1 -> 1 | 2 -> 2 | 3 -> 3 | _ -> 0 in
  Alcotest.(check (float 1e-9)) "sorted" 0.0 (Stats.error_rate ~true_dist:dist [ 1; 2; 3 ]);
  (* 3 returned before 1 and 2: the 3 is "wrong" (smaller dist later). *)
  Alcotest.(check (float 1e-9)) "one wrong" (1.0 /. 3.0)
    (Stats.error_rate ~true_dist:dist [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.error_rate ~true_dist:dist []);
  check_int "inversions" 2 (Stats.inversions ~true_dist:dist [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "inversion rate" (2.0 /. 3.0)
    (Stats.inversion_rate ~true_dist:dist [ 3; 1; 2 ]);
  Alcotest.(check (float 1e-9)) "rate sorted" 0.0
    (Stats.inversion_rate ~true_dist:dist [ 1; 2; 3 ]);
  Alcotest.(check (float 1e-9)) "rate singleton" 0.0
    (Stats.inversion_rate ~true_dist:dist [ 1 ])

let test_time_series () =
  let trace = [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ] in
  Alcotest.(check (list (pair int (float 1e-9))))
    "series"
    [ (1, 1.0); (3, 3.0) ]
    (Stats.time_series trace ~ks:[ 1; 3; 10 ])

let test_percentile_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Stats.percentile 50.0 [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "p100" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ])

(* --- facade -------------------------------------------------------------------------- *)

let test_flix_facade () =
  let c = figure1 () in
  let f = Flix.build ~config:MB.default_hybrid c in
  check "report nonempty" true (String.length (Flix.report f) > 0);
  check "size positive" true (Flix.index_size_bytes f > 0);
  let start = Option.get (Flix.node_of f ~doc:"doc1" ~anchor:None) in
  let results = RS.to_list (Flix.descendants f ~start ~tag:"b") in
  check "results" true (results <> []);
  (* unknown tag: empty, not an error *)
  check "unknown tag empty" true (RS.to_list (Flix.descendants f ~start ~tag:"zzz") = []);
  (* node_of with anchor *)
  check "anchor lookup" true (Flix.node_of f ~doc:"doc6" ~anchor:(Some "x6") <> None);
  check "missing doc" true (Flix.node_of f ~doc:"nope" ~anchor:None = None);
  (* A//B over the whole collection *)
  let ab = RS.to_list (Flix.evaluate f ~start_tag:"p" ~target_tag:"q") in
  check "A//B nonempty" true (ab <> []);
  (* true_distance sanity *)
  check "true distance" true (Flix.true_distance f start start = Some 0)

let () =
  Alcotest.run "fx_flix"
    [
      ( "meta_documents",
        [
          Alcotest.test_case "registry invariants (fig1, all configs)" `Quick
            test_registry_invariants_fig1;
          Alcotest.test_case "naive = 1 doc per meta" `Quick test_naive_one_meta_per_doc;
          Alcotest.test_case "maximal PPO builds forests" `Quick test_maximal_ppo_forests;
          Alcotest.test_case "accepted links point at roots" `Quick
            test_maximal_ppo_accepted_links_are_tree_edges;
          Alcotest.test_case "unconnected HOPI size bound" `Quick
            test_unconnected_hopi_size_bound;
          Alcotest.test_case "hybrid mixes strategies" `Quick test_hybrid_mixes;
          Alcotest.test_case "spanning PPO single meta" `Quick test_spanning_ppo_single_meta;
        ] );
      ( "auto_config",
        [
          Alcotest.test_case "paper's prescription per workload" `Quick
            test_auto_config_per_workload;
          Alcotest.test_case "analysis fields" `Quick test_auto_config_analysis_fields;
          Alcotest.test_case "empty collection" `Quick test_auto_config_empty_collection;
        ] );
      ( "strategy_selector",
        [
          Alcotest.test_case "auto policy" `Quick test_selector_auto;
          Alcotest.test_case "force and custom" `Quick test_selector_force_and_custom;
          Alcotest.test_case "closure estimate" `Quick test_selector_estimate;
        ] );
      ( "index_builder",
        [
          Alcotest.test_case "PPO fallback" `Quick test_builder_fallback;
          Alcotest.test_case "parallel build equivalent" `Quick test_builder_parallel_equivalent;
          Alcotest.test_case "report" `Quick test_builder_report;
        ] );
      ( "pee",
        [
          Alcotest.test_case "fig1: all configs, all starts" `Quick test_pee_fig1_all_configs;
          Alcotest.test_case "distances are upper bounds" `Quick
            test_pee_distances_are_exact_in_fig1_tree;
          Alcotest.test_case "max_dist threshold" `Quick test_pee_max_dist;
          Alcotest.test_case "include_self" `Quick test_pee_include_self;
          Alcotest.test_case "lazy streaming" `Quick test_pee_streaming_is_lazy;
          Alcotest.test_case "A//B multi-start" `Quick test_pee_multi;
          Alcotest.test_case "A//B lazy starts" `Quick test_evaluate_lazy_starts;
          Alcotest.test_case "A//B negative max_dist" `Quick test_evaluate_negative_max_dist;
          Alcotest.test_case "negative tag pushes nothing" `Quick test_pee_negative_tag;
          Alcotest.test_case "ancestors" `Quick test_pee_ancestors;
          Alcotest.test_case "exact ordering (fig1)" `Quick test_pee_exact_ordering;
          prop_pee_exact_random;
          Alcotest.test_case "ancestors exact" `Quick test_pee_ancestors_exact;
          Alcotest.test_case "connection test" `Quick test_pee_connected;
          Alcotest.test_case "connection max_dist" `Quick test_pee_connected_max_dist;
          prop_pee_random_collections;
          prop_pee_block_order;
          prop_evaluate_slice_dblp;
          prop_evaluate_slice_inex;
          prop_evaluate_slice_web;
        ] );
      ( "reach_filter",
        [
          prop_reach_filter_sound;
          Alcotest.test_case "rejects later-document pairs" `Quick
            test_reach_filter_rejects_later_docs;
        ] );
      ( "element_level",
        [
          Alcotest.test_case "splits documents" `Quick test_element_level_splits_docs;
          Alcotest.test_case "PEE correct (fig1)" `Quick test_element_level_pee_correct;
          prop_element_level_random;
        ] );
      ( "query_cache",
        [
          Alcotest.test_case "replay" `Quick test_query_cache_replay;
          Alcotest.test_case "keys" `Quick test_query_cache_keys;
          Alcotest.test_case "unconsumed not cached" `Quick test_query_cache_unconsumed_not_cached;
          Alcotest.test_case "invalidate" `Quick test_query_cache_invalidate;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "extend reuses indexes" `Quick test_extend_reuses_indexes;
          Alcotest.test_case "duplicate names rejected" `Quick test_extend_duplicate_name_rejected;
          Alcotest.test_case "remove documents" `Quick test_remove_documents;
          Alcotest.test_case "rebuild with new config" `Quick test_rebuild_applies_recommendation;
          Alcotest.test_case "structural change handled" `Quick
            test_extend_link_into_old_doc_rebuilds_it;
          Alcotest.test_case "staged link sets follow the meta document" `Quick
            test_staging_follows_link_sets;
          Alcotest.test_case "rebound link rows = a fresh build's" `Quick
            test_rebound_rows_equal_fresh;
        ] );
      ( "self_tuning",
        [
          Alcotest.test_case "summary" `Quick test_self_tuning_summary;
          Alcotest.test_case "link hops" `Quick test_self_tuning_link_hops;
          Alcotest.test_case "window" `Quick test_self_tuning_window;
          Alcotest.test_case "recommendations" `Quick test_self_tuning_recommend;
        ] );
      ( "result_stream",
        [
          Alcotest.test_case "basics" `Quick test_stream_basics;
          Alcotest.test_case "combinators" `Quick test_stream_take_while_map_filter;
          Alcotest.test_case "timed" `Quick test_stream_timed;
        ] );
      ( "stats",
        [
          Alcotest.test_case "error rate" `Quick test_error_rate;
          Alcotest.test_case "time series" `Quick test_time_series;
          Alcotest.test_case "percentile/mean" `Quick test_percentile_mean;
        ] );
      ("facade", [ Alcotest.test_case "flix facade" `Quick test_flix_facade ]);
    ]
