(* Tests for the Path Indexing Strategies: PPO, 2-hop/HOPI, APEX, the
   materialised TC and the DataGuide. The central properties: every
   strategy answers reachability, distance and descendants-by-tag
   queries exactly like BFS on the data graph; result lists are sorted
   by ascending distance and duplicate-free. *)

module Digraph = Fx_graph.Digraph
module Traversal = Fx_graph.Traversal
module Bitset = Fx_graph.Bitset
module Pi = Fx_index.Path_index
module Ppo = Fx_index.Ppo
module Two_hop = Fx_index.Two_hop
module Hopi = Fx_index.Hopi
module Apex = Fx_index.Apex
module Tc_index = Fx_index.Tc_index
module Dataguide = Fx_index.Dataguide
module H = Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* The tagged forest from helpers:
       0          5
      / \
     1   2
        / \
       3   4        tags: 0:a 1:b 2:b 3:c 4:b 5:a *)
let forest_dg () =
  { Pi.graph = H.small_forest (); tag = [| 0; 1; 1; 2; 1; 0 |] }

let graph_dg () =
  { Pi.graph = H.small_graph (); tag = [| 0; 1; 1; 2; 1; 0; 2; 1 |] }

(* --- instance-level conformance, shared by all strategies ------------- *)

let conformance name (make : Pi.data_graph -> Pi.instance) (dg : Pi.data_graph) =
  let inst = make dg in
  let g = dg.graph in
  let n = Digraph.n_nodes g in
  (* reachability and distance vs BFS *)
  List.iter
    (fun (u, v) ->
      let expected = Traversal.distance g u v in
      if inst.reachable u v <> (expected <> None) then
        Alcotest.failf "%s: reachable %d %d mismatch" name u v;
      if inst.distance u v <> expected then
        Alcotest.failf "%s: distance %d %d = %s, expected %s" name u v
          (match inst.distance u v with None -> "None" | Some d -> string_of_int d)
          (match expected with None -> "None" | Some d -> string_of_int d))
    (H.all_pairs n);
  (* descendants by tag: exact lists in (distance, node) order, which
     also makes them sorted and duplicate-free *)
  let tags = List.sort_uniq compare (Array.to_list dg.tag) in
  for u = 0 to n - 1 do
    List.iter
      (fun want ->
        let got = inst.descendants_by_tag u want in
        let expected = Pi.sort_results (H.oracle_descendants_by_tag dg u want) in
        if got <> expected then
          Alcotest.failf "%s: descendants_by_tag %d mismatch" name u;
        if not (H.sorted_by_distance got) then
          Alcotest.failf "%s: descendants_by_tag %d not sorted" name u;
        if List.length (List.sort_uniq compare (List.map fst got)) <> List.length got then
          Alcotest.failf "%s: duplicates in descendants of %d" name u)
      (None :: List.map Option.some tags);
    (* ancestors mirror descendants on the reversed graph *)
    let rev = Digraph.reverse g in
    let expected_anc =
      Pi.sort_results (Traversal.descendants_by_tag rev ~tag:dg.tag u None)
    in
    let got_anc = inst.ancestors_by_tag u None in
    if got_anc <> expected_anc then
      Alcotest.failf "%s: ancestors_by_tag %d mismatch" name u
  done;
  (* restricted descendants/ancestors against a fixed set *)
  let set = Bitset.create n in
  let rec mark v = if v >= 0 then begin Bitset.add set v; mark (v - 2) end in
  mark (n - 1);
  let below = inst.restricted_descendants set and above = inst.restricted_ancestors set in
  for u = 0 to n - 1 do
    let got = below u in
    let expected =
      Pi.sort_results (List.filter (fun (v, _) -> Bitset.mem set v) (Traversal.descendants g u))
    in
    if got <> expected then
      Alcotest.failf "%s: restricted_descendants %d mismatch" name u;
    let got_a = above u in
    let expected_a =
      Pi.sort_results
        (List.filter (fun (v, _) -> Bitset.mem set v)
           (Traversal.descendants (Digraph.reverse g) u))
    in
    if got_a <> expected_a then
      Alcotest.failf "%s: restricted_ancestors %d mismatch" name u
  done;
  if inst.stats.size_bytes <= 0 && n > 0 then Alcotest.failf "%s: zero size" name

let make_hopi dg = Hopi.instance ~partition_size:3 dg
let make_apex dg = Apex.instance dg
let make_tc dg = Tc_index.instance dg

let test_conformance_forest () =
  conformance "PPO" Ppo.instance (forest_dg ());
  conformance "HOPI" make_hopi (forest_dg ());
  conformance "APEX" make_apex (forest_dg ());
  conformance "TC" make_tc (forest_dg ())

let test_conformance_graph () =
  conformance "HOPI" make_hopi (graph_dg ());
  conformance "APEX" make_apex (graph_dg ());
  conformance "TC" make_tc (graph_dg ())

(* The disk deployment answers distance, descendants and ancestors by
   tag and its tag directory exactly like BFS and a tag scan. *)
let test_conformance_disk () =
  List.iter
    (fun (dg : Pi.data_graph) ->
      let path = Filename.temp_file "fxconf" "" in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ path; path ^ ".labels" ])
        (fun () ->
          Fx_index.Disk_hopi.save ~page_size:256 ~path dg (Hopi.build dg);
          let disk = Fx_index.Disk_hopi.open_ ~pool_pages:4 ~path () in
          Fun.protect
            ~finally:(fun () -> Fx_index.Disk_hopi.close disk)
            (fun () ->
              let g = dg.graph and n = Digraph.n_nodes dg.graph in
              List.iter
                (fun (u, v) ->
                  if Fx_index.Disk_hopi.distance disk u v <> Traversal.distance g u v then
                    Alcotest.failf "HOPI-disk: distance %d %d mismatch" u v)
                (H.all_pairs n);
              let tags = List.sort_uniq compare (Array.to_list dg.tag) in
              List.iter
                (fun tag ->
                  let want = List.filter (fun v -> dg.tag.(v) = tag) (List.init n Fun.id) in
                  if Fx_index.Disk_hopi.nodes_by_tag disk tag <> want then
                    Alcotest.failf "HOPI-disk: nodes_by_tag %d mismatch" tag)
                tags;
              let rev = Digraph.reverse g in
              for u = 0 to n - 1 do
                List.iter
                  (fun want ->
                    let got = Fx_index.Disk_hopi.descendants_by_tag disk u want in
                    if got <> Pi.sort_results (H.oracle_descendants_by_tag dg u want) then
                      Alcotest.failf "HOPI-disk: descendants_by_tag %d mismatch" u;
                    let got = Fx_index.Disk_hopi.ancestors_by_tag disk u want in
                    if got <> Pi.sort_results (Traversal.descendants_by_tag rev ~tag:dg.tag u want)
                    then Alcotest.failf "HOPI-disk: ancestors_by_tag %d mismatch" u)
                  (None :: List.map Option.some tags)
              done)))
    [ forest_dg (); graph_dg () ]

let test_conformance_borders_first () =
  let make dg = Hopi.instance ~ordering:`Borders_first ~partition_size:3 dg in
  conformance "HOPI-borders" make (forest_dg ());
  conformance "HOPI-borders" make (graph_dg ())

let prop_conformance_random_graphs =
  H.qtest ~count:60 "HOPI/APEX/TC ≡ BFS on random digraphs" (H.digraph_arb ~max_n:14 ())
    (fun (n, edges) ->
      let dg = H.data_graph_of (n, edges) ~tag_seed:5 in
      let instances = [ make_hopi dg; make_apex dg; make_tc dg ] in
      let g = dg.graph in
      List.for_all
        (fun (inst : Pi.instance) ->
          List.for_all
            (fun (u, v) -> inst.distance u v = Traversal.distance g u v)
            (H.all_pairs n)
          && List.for_all
               (fun u ->
                 inst.descendants_by_tag u (Some 1)
                 = Pi.sort_results (H.oracle_descendants_by_tag dg u (Some 1)))
               (List.init n (fun i -> i)))
        instances)

let prop_conformance_random_forests =
  H.qtest ~count:60 "PPO ≡ BFS on random forests" (H.forest_arb ())
    (fun (n, edges) ->
      let dg = H.data_graph_of (n, edges) ~tag_seed:9 in
      let inst = Ppo.instance dg in
      List.for_all
        (fun (u, v) -> inst.Pi.distance u v = Traversal.distance dg.graph u v)
        (H.all_pairs n)
      && List.for_all
           (fun u ->
             inst.Pi.descendants_by_tag u None
             = Pi.sort_results (Traversal.descendants dg.graph u))
           (List.init n (fun i -> i)))

(* --- PPO specifics ------------------------------------------------------- *)

(* The subtree-folding PPO lookups that the preorder-rank search
   replaced, kept as the reference: fold [x]'s preorder window (or walk
   its parent chain), keep the matches, sort. *)
module Fold_ppo = struct
  type t = { tag : int array; num : Traversal.dfs_numbering; subtree : int array }

  let build (dg : Pi.data_graph) =
    let num = Traversal.dfs_forest dg.graph in
    let n = Digraph.n_nodes dg.graph in
    let subtree = Array.make n 1 in
    for r = n - 1 downto 0 do
      let v = num.order.(r) in
      let p = num.parent.(v) in
      if p >= 0 then subtree.(p) <- subtree.(p) + subtree.(v)
    done;
    { tag = dg.tag; num; subtree }

  let subtree_matching t x keep =
    let acc = ref [] in
    for r = t.num.pre.(x) to t.num.pre.(x) + t.subtree.(x) - 1 do
      let v = t.num.order.(r) in
      if keep v then acc := (v, t.num.depth.(v) - t.num.depth.(x)) :: !acc
    done;
    Pi.sort_results !acc

  let ancestors_matching t x keep =
    let rec walk v d acc =
      let acc = if keep v then (v, d) :: acc else acc in
      if t.num.parent.(v) < 0 then acc else walk t.num.parent.(v) (d + 1) acc
    in
    Pi.sort_results (walk x 0 [])

  let matches t want v = match want with None -> true | Some w -> t.tag.(v) = w
  let descendants_by_tag t x want = subtree_matching t x (matches t want)
  let ancestors_by_tag t x want = ancestors_matching t x (matches t want)
  let restricted_descendants t x set = subtree_matching t x (Bitset.mem set)
  let restricted_ancestors t x set = ancestors_matching t x (Bitset.mem set)
end

(* A random forest, a grown copy with whole new trees appended on new
   ids (some under tags the base does not have), and a seed for the
   link sets. *)
let grown_forest_arb =
  let open QCheck.Gen in
  let gen =
    H.forest_gen () >>= fun base ->
    int_range 0 12 >>= fun extra ->
    int >>= fun seed -> return (base, extra, seed)
  in
  QCheck.make
    ~print:(fun ((n, edges), extra, seed) ->
      Printf.sprintf "n=%d edges=[%s] extra=%d seed=%d" n
        (String.concat "; " (List.map (fun (u, v) -> Printf.sprintf "%d->%d" u v) edges))
        extra seed)
    gen

let grow (dg : Pi.data_graph) edges ~extra ~seed =
  let n = Digraph.n_nodes dg.graph in
  let rng = Fx_util.Rng.create seed in
  let new_edges =
    List.concat
      (List.init extra (fun i ->
           if i > 0 && Fx_util.Rng.int rng 3 > 0 then [ (n + Fx_util.Rng.int rng i, n + i) ]
           else []))
  in
  {
    Pi.graph = Digraph.of_edges ~n:(n + extra) (edges @ new_edges);
    tag = Array.append dg.tag (Array.init extra (fun _ -> Fx_util.Rng.int rng 6));
  }

let random_sets (dg : Pi.data_graph) ~seed =
  let n = Digraph.n_nodes dg.graph in
  let rng = Fx_util.Rng.create (seed lxor 0x5e7) in
  let random density =
    let s = Bitset.create n in
    for v = 0 to n - 1 do
      if Fx_util.Rng.int rng 100 < density then Bitset.add s v
    done;
    s
  in
  [ Bitset.create n; random 15; random 50; Bitset.of_list n (List.init n Fun.id) ]

(* The pairs a link-set iteration visits, in its order. *)
let iterated iter =
  let acc = ref [] in
  iter (fun ~link ~dist ->
      acc := (link, dist) :: !acc;
      true);
  List.rev !acc

(* A callback that answers false at the [i]th pair is called on the
   first [i + 1] pairs and no more, for every [i]. *)
let stops_early iter expected =
  List.for_all
    (fun i ->
      let seen = ref [] in
      iter (fun ~link ~dist ->
          seen := (link, dist) :: !seen;
          List.length !seen <= i);
      List.rev !seen = List.filteri (fun j _ -> j <= i) expected)
    (List.init (List.length expected) Fun.id)

(* Every node against every tag (the wildcard, each tag, -1, ids past
   the last tag) and random link sets, each staged once — as a list
   lookup, as rows ({!Ppo.link_rows}) and as a parent-chain walk,
   stopped early at every pair too; the derived
   postorder ranks and the window test for reachability against the
   DFS numbering. *)
let ppo_matches_fold (dg : Pi.data_graph) (t : Ppo.t) ~seed =
  let r = Fold_ppo.build dg in
  let inst = Ppo.instance_of t in
  let n = Digraph.n_nodes dg.graph in
  let k = Pi.n_tags dg in
  let wants = None :: List.map Option.some ([ -1; min_int; k; k + 5 ] @ List.init k Fun.id) in
  let nodes = List.init n Fun.id in
  List.for_all (fun v -> Ppo.post t v = r.num.post.(v)) nodes
  && List.for_all
       (fun (x, y) ->
         inst.reachable x y = (r.num.pre.(x) <= r.num.pre.(y) && r.num.post.(x) >= r.num.post.(y)))
       (H.all_pairs n)
  && List.for_all
       (fun x ->
         List.for_all
           (fun want ->
             inst.descendants_by_tag x want = Fold_ppo.descendants_by_tag r x want
             && inst.ancestors_by_tag x want = Fold_ppo.ancestors_by_tag r x want)
           wants)
       nodes
  && List.for_all
       (fun set ->
         let below = inst.restricted_descendants set and above = inst.restricted_ancestors set in
         let rows = Ppo.link_rows t set in
         let pairs = ref 0 in
         List.for_all
           (fun x ->
             let row = iterated (Ppo.iter_link_row rows x) in
             pairs := !pairs + List.length row;
             row = Fold_ppo.restricted_descendants r x set
             && iterated (Ppo.iter_ancestors_in t set x) = Fold_ppo.restricted_ancestors r x set
             && below x = row
             && above x = Fold_ppo.restricted_ancestors r x set
             && stops_early (Ppo.iter_link_row rows x) row
             && stops_early (Ppo.iter_ancestors_in t set x) (Fold_ppo.restricted_ancestors r x set))
           nodes
         && Ppo.link_row_pairs rows = !pairs)
       (random_sets dg ~seed)

let prop_ppo_rank_search_matches_fold =
  H.qtest ~count:150 "rank search and staged lookups = subtree fold (build, extend, reload)"
    grown_forest_arb
    (fun (((_, edges) as base), extra, seed) ->
      let dg = H.data_graph_of base ~tag_seed:seed in
      let t = Ppo.build dg in
      let grown = grow dg edges ~extra ~seed in
      ppo_matches_fold dg t ~seed
      && ppo_matches_fold dg (Ppo.deserialize dg (Ppo.serialize t)) ~seed
      &&
      match Ppo.extend t grown with
      | None -> extra = 0
      | Some t' ->
          ppo_matches_fold grown t' ~seed
          && ppo_matches_fold grown (Ppo.deserialize grown (Ppo.serialize t')) ~seed)

(* An old node whose tag changed is a different document: extend
   refuses it, so the rank lists never go stale. *)
let test_ppo_extend_refuses_retagged () =
  let dg = forest_dg () in
  let t = Ppo.build dg in
  let tag = Array.append (Array.copy dg.tag) [| 0 |] in
  tag.(3) <- 0;
  let grown = { Pi.graph = Digraph.of_edges ~n:7 (Digraph.edges dg.graph); tag } in
  check "retagged old node refused" true (Ppo.extend t grown = None)

let test_ppo_rejects_graphs () =
  check "not buildable" false (Ppo.is_buildable (graph_dg ()));
  Alcotest.check_raises "raises" Ppo.Not_a_forest (fun () -> ignore (Ppo.build (graph_dg ())))

let test_ppo_pre_post () =
  let t = Ppo.build (forest_dg ()) in
  check_int "pre root" 0 (Ppo.pre t 0);
  check "pre/post window" true (Ppo.pre t 2 < Ppo.pre t 3 && Ppo.post t 2 > Ppo.post t 3);
  check_int "depth" 2 (Ppo.depth t 3);
  check "different trees" false (Ppo.reachable t 0 5)

let test_ppo_axes () =
  let t = Ppo.build (forest_dg ()) in
  check "parent" true (Ppo.parent t 3 = Some 2);
  check "root parent" true (Ppo.parent t 0 = None);
  Alcotest.(check (list int)) "children" [ 3; 4 ] (Ppo.children t 2);
  (* following of node 1: everything after its subtree in its tree, in
     preorder: 2, 3, 4, then the second root 5 *)
  Alcotest.(check (list int)) "following" [ 2; 3; 4; 5 ] (Ppo.following t 1);
  Alcotest.(check (list int)) "preceding of 3" [ 1 ] (Ppo.preceding t 3)

let test_ppo_size_linear () =
  let t = Ppo.build (forest_dg ()) in
  check_int "12 bytes per node" (12 * 6) (Ppo.size_bytes t)

(* --- 2-hop labels ----------------------------------------------------------- *)

let prop_two_hop_exact =
  H.qtest ~count:80 "2-hop distances exact on random digraphs" (H.digraph_arb ~max_n:16 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let labels = Two_hop.build g in
      List.for_all
        (fun (u, v) -> Two_hop.distance labels u v = Traversal.distance g u v)
        (H.all_pairs n))

let prop_two_hop_any_order =
  H.qtest ~count:40 "2-hop exact under adversarial landmark order"
    (H.digraph_arb ~max_n:12 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      (* Reverse order = worst-case heuristic; correctness must hold. *)
      let order = Array.init n (fun i -> n - 1 - i) in
      let labels = Two_hop.build ~order g in
      List.for_all
        (fun (u, v) -> Two_hop.reachable labels u v = Traversal.reachable g u v)
        (H.all_pairs n))

let prop_two_hop_weighted_exact =
  H.qtest ~count:60 "weighted 2-hop ≡ relaxation fixpoint" (H.digraph_arb ~max_n:14 ())
    (fun (n, edges) ->
      (* Deterministic weights in [0, 3] derived from the endpoints, so
         zero-weight and heavy edges both occur. *)
      let wedges =
        Array.of_list (List.map (fun (u, v) -> (u, v, (u + (3 * v)) mod 4)) edges)
      in
      let labels = Two_hop.build_weighted ~n wedges in
      let truth src =
        let dist = Array.make n max_int in
        dist.(src) <- 0;
        let changed = ref true in
        while !changed do
          changed := false;
          Array.iter
            (fun (u, v, w) ->
              if dist.(u) <> max_int && dist.(u) + w < dist.(v) then begin
                dist.(v) <- dist.(u) + w;
                changed := true
              end)
            wedges
        done;
        dist
      in
      List.for_all
        (fun u ->
          let d = truth u in
          List.for_all
            (fun v ->
              Two_hop.distance labels u v
              = (if d.(v) = max_int then None else Some d.(v)))
            (List.init n Fun.id))
        (List.init n Fun.id))

let test_two_hop_weighted_validation () =
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Two_hop.build_weighted: negative edge weight") (fun () ->
      ignore (Two_hop.build_weighted ~n:2 [| (0, 1, -1) |]));
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Two_hop.build_weighted: edge endpoint out of range") (fun () ->
      ignore (Two_hop.build_weighted ~n:2 [| (0, 2, 1) |]))

let test_two_hop_chain_compression () =
  (* A path graph: labels must stay near-linear, far below the O(n^2)
     transitive closure. *)
  let n = 200 in
  let g = Digraph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let labels = Two_hop.build g in
  let tc_pairs = n * (n - 1) / 2 in
  check "entries well below TC" true (Two_hop.entries labels < tc_pairs / 3);
  check "max label sublinear" true (Two_hop.max_label labels <= n / 2)

let test_two_hop_bad_order () =
  let g = Digraph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Two_hop.build: order is not a permutation") (fun () ->
      ignore (Two_hop.build ~order:[| 0; 0; 2 |] g))

let test_two_hop_labels_inspectable () =
  let g = Digraph.of_edges ~n:2 [ (0, 1) ] in
  let labels = Two_hop.build g in
  (* Some hop must witness 0 -> 1. *)
  let w =
    List.exists
      (fun h -> List.mem h (Two_hop.in_label_nodes labels 1))
      (Two_hop.out_label_nodes labels 0)
    || List.mem 0 (Two_hop.in_label_nodes labels 1)
    || List.mem 1 (Two_hop.out_label_nodes labels 0)
  in
  check "cover witness" true w

(* --- HOPI ---------------------------------------------------------------------- *)

let test_hopi_partition_sizes () =
  (* Same answers for different partition sizes. *)
  let dg = graph_dg () in
  let h1 = Hopi.build ~partition_size:2 dg in
  let h2 = Hopi.build ~partition_size:100 dg in
  List.iter
    (fun (u, v) ->
      check "same distance" true (Hopi.distance h1 u v = Hopi.distance h2 u v))
    (H.all_pairs 8)

let test_hopi_wildcard_sorted () =
  let h = Hopi.build (graph_dg ()) in
  let d = Hopi.descendants_by_tag h 0 None in
  check "sorted" true (H.sorted_by_distance d);
  check "self included" true (List.mem (0, 0) d)

(* --- APEX ------------------------------------------------------------------------ *)

let test_apex_blocks_respect_tags () =
  let a = Apex.build (graph_dg ()) in
  let dg = graph_dg () in
  for v = 0 to 7 do
    for w = 0 to 7 do
      if Apex.block a v = Apex.block a w then
        check "same block same tag" true (dg.tag.(v) = dg.tag.(w))
    done
  done

let test_apex_extents_partition () =
  let a = Apex.build (graph_dg ()) in
  let seen = Array.make 8 0 in
  for b = 0 to Apex.n_blocks a - 1 do
    Array.iter (fun v -> seen.(v) <- seen.(v) + 1) (Apex.extent a b)
  done;
  Array.iter (fun k -> check_int "each node in one extent" 1 k) seen

let test_apex_label_path () =
  (* b-tagged children under a-tagged root: //a//c ; //b//c ; //c//a *)
  let dg = forest_dg () in
  let a = Apex.build dg in
  let tag_id = function "a" -> Some 0 | "b" -> Some 1 | "c" -> Some 2 | _ -> None in
  Alcotest.(check (list int)) "//a//c" [ 3 ] (Apex.eval_label_path a [ "a"; "c" ] ~tag_id);
  Alcotest.(check (list int)) "//b//c" [ 3 ] (Apex.eval_label_path a [ "b"; "c" ] ~tag_id);
  Alcotest.(check (list int)) "//c//a" [] (Apex.eval_label_path a [ "c"; "a" ] ~tag_id);
  Alcotest.(check (list int)) "unknown tag" [] (Apex.eval_label_path a [ "zz" ] ~tag_id)

let prop_apex_bisimulation_summary_sound =
  H.qtest ~count:50 "APEX summary simulates the data graph" (H.digraph_arb ~max_n:12 ())
    (fun (n, edges) ->
      let dg = H.data_graph_of (n, edges) ~tag_seed:13 in
      let a = Apex.build dg in
      (* Every data edge has a summary edge between the blocks. *)
      let ok = ref true in
      Digraph.iter_edges dg.graph (fun u v ->
          ok := !ok && Digraph.mem_edge (Apex.summary_graph a) (Apex.block a u) (Apex.block a v));
      !ok)

(* --- DataGuide -------------------------------------------------------------------- *)

let test_dataguide_paths () =
  let dg = forest_dg () in
  let guide = Option.get (Dataguide.build dg ~roots:[ 0; 5 ]) in
  let tag_id = function "a" -> Some 0 | "b" -> Some 1 | "c" -> Some 2 | _ -> None in
  Alcotest.(check (list int)) "/a" [ 0; 5 ] (Dataguide.targets_of_path guide ~tag_id [ "a" ]);
  Alcotest.(check (list int)) "/a/b" [ 1; 2 ] (Dataguide.targets_of_path guide ~tag_id [ "a"; "b" ]);
  Alcotest.(check (list int)) "/a/b/c" [ 3 ]
    (Dataguide.targets_of_path guide ~tag_id [ "a"; "b"; "c" ]);
  Alcotest.(check (list int)) "missing" [] (Dataguide.targets_of_path guide ~tag_id [ "c" ])

let test_dataguide_budget () =
  let dg = graph_dg () in
  check "budget refusal" true (Dataguide.build ~max_states:1 dg ~roots:[ 0 ] = None)

let test_dataguide_path_listing () =
  let dg = forest_dg () in
  let guide = Option.get (Dataguide.build dg ~roots:[ 0; 5 ]) in
  let paths = Dataguide.paths guide ~tag_name:(fun w -> [| "a"; "b"; "c" |].(w)) ~max:10 in
  check "lists /a" true (List.mem "/a" paths);
  check "lists /a/b/c" true (List.mem "/a/b/c" paths)

let prop_dataguide_targets_match_bfs =
  H.qtest ~count:50 "DataGuide label paths ≡ navigation" (H.forest_arb ~max_n:16 ())
    (fun (n, edges) ->
      let dg = H.data_graph_of (n, edges) ~tag_seed:21 in
      let roots =
        List.filter (fun v -> Digraph.in_degree dg.graph v = 0) (List.init n (fun i -> i))
      in
      match Dataguide.build dg ~roots with
      | None -> false
      | Some guide ->
          let tag_name w = [| "t0"; "t1"; "t2"; "t3" |].(w) in
          let tag_id s = List.assoc_opt s [ ("t0", 0); ("t1", 1); ("t2", 2); ("t3", 3) ] in
          (* Navigate each 2-step label path by hand and compare. *)
          let ok = ref true in
          for w1 = 0 to 3 do
            for w2 = 0 to 3 do
              let expected =
                List.concat_map
                  (fun r ->
                    if dg.tag.(r) = w1 then
                      Digraph.fold_succ dg.graph r
                        (fun acc v -> if dg.tag.(v) = w2 then v :: acc else acc)
                        []
                    else [])
                  roots
                |> List.sort_uniq compare
              in
              let got = Dataguide.targets_of_path guide ~tag_id [ tag_name w1; tag_name w2 ] in
              ok := !ok && List.sort_uniq compare got = expected
            done
          done;
          !ok)

(* --- persistence -------------------------------------------------------------------- *)

let test_two_hop_serialization () =
  let g = H.small_graph () in
  let labels = Two_hop.build g in
  let loaded = Two_hop.deserialize (Two_hop.serialize labels) in
  List.iter
    (fun (u, v) ->
      check "same distance" true (Two_hop.distance labels u v = Two_hop.distance loaded u v))
    (H.all_pairs 8);
  check_int "same entries" (Two_hop.entries labels) (Two_hop.entries loaded)

let test_two_hop_serialization_corrupt () =
  let g = H.small_graph () in
  let data = Two_hop.serialize (Two_hop.build g) in
  let tamper i c =
    let b = Bytes.of_string data in
    Bytes.set b i c;
    Bytes.to_string b
  in
  (match Two_hop.deserialize (tamper 0 'X') with
  | exception Fx_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  match Two_hop.deserialize (String.sub data 0 (String.length data / 2)) with
  | exception Fx_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation accepted"

let test_ppo_serialization () =
  let dg = forest_dg () in
  let t = Ppo.build dg in
  let loaded = Ppo.deserialize dg (Ppo.serialize t) in
  List.iter
    (fun (u, v) ->
      check "same distance" true (Ppo.distance t u v = Ppo.distance loaded u v))
    (H.all_pairs 6);
  for v = 0 to 5 do
    check "descendants equal" true
      (Ppo.descendants_by_tag t v None = Ppo.descendants_by_tag loaded v None)
  done;
  (* wrong graph is rejected *)
  match Ppo.deserialize (graph_dg ()) (Ppo.serialize t) with
  | exception Fx_util.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "node-count mismatch accepted"

let prop_two_hop_serialization_random =
  H.qtest ~count:30 "2-hop serialization roundtrip" (H.digraph_arb ~max_n:12 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let labels = Two_hop.build g in
      let loaded = Two_hop.deserialize (Two_hop.serialize labels) in
      List.for_all
        (fun (u, v) -> Two_hop.distance labels u v = Two_hop.distance loaded u v)
        (H.all_pairs n))

(* --- A(k) bounded refinement ------------------------------------------------------- *)

let test_ak_index () =
  let dg = graph_dg () in
  let a0 = Apex.build ~k:0 dg in
  (* A(0): blocks = tags *)
  check_int "A(0) blocks = tags" (Fx_index.Path_index.n_tags dg) (Apex.n_blocks a0);
  (* Blocks refine monotonically with k and answers stay exact. *)
  let prev = ref 0 in
  List.iter
    (fun k ->
      let ak = Apex.build ~k dg in
      check "monotone blocks" true (Apex.n_blocks ak >= !prev);
      prev := Apex.n_blocks ak;
      List.iter
        (fun (u, v) ->
          check "A(k) distance exact" true
            (Apex.distance ak u v = Fx_graph.Traversal.distance dg.graph u v))
        (H.all_pairs 8))
    [ 0; 1; 2; 5 ];
  Alcotest.check_raises "negative k" (Invalid_argument "Apex.build: k < 0") (fun () ->
      ignore (Apex.build ~k:(-1) dg))

let test_fb_index () =
  let dg = graph_dg () in
  let plain = Apex.build dg in
  let fb = Apex.build ~fb:true dg in
  (* F&B refines the backward-only partition. *)
  check "fb at least as fine" true (Apex.n_blocks fb >= Apex.n_blocks plain);
  (* Same-block nodes agree on successor blocks too. *)
  let g = dg.graph in
  for v = 0 to 7 do
    for w = 0 to 7 do
      if Apex.block fb v = Apex.block fb w then begin
        let out u =
          Digraph.fold_succ g u (fun acc x -> Apex.block fb x :: acc) []
          |> List.sort_uniq compare
        in
        check "stable under succ" true (out v = out w)
      end
    done
  done;
  (* Still exact. *)
  List.iter
    (fun (u, v) ->
      check "fb distance exact" true
        (Apex.distance fb u v = Fx_graph.Traversal.distance g u v))
    (H.all_pairs 8)

let prop_fb_exact =
  H.qtest ~count:30 "F&B index exact on random digraphs" (H.digraph_arb ~max_n:10 ())
    (fun (n, edges) ->
      let dg = H.data_graph_of (n, edges) ~tag_seed:37 in
      let fb = Apex.build ~fb:true dg in
      List.for_all
        (fun u ->
          H.same_results
            (Apex.descendants_by_tag fb u (Some 2))
            (H.oracle_descendants_by_tag dg u (Some 2)))
        (List.init n (fun i -> i)))

let prop_ak_exact =
  H.qtest ~count:40 "A(k) exact for every k on random digraphs" (H.digraph_arb ~max_n:10 ())
    (fun (n, edges) ->
      let dg = H.data_graph_of (n, edges) ~tag_seed:31 in
      List.for_all
        (fun k ->
          let ak = Apex.build ~k dg in
          List.for_all
            (fun u ->
              H.same_results
                (Apex.descendants_by_tag ak u (Some 1))
                (H.oracle_descendants_by_tag dg u (Some 1)))
            (List.init n (fun i -> i)))
        [ 0; 1; 3 ])

let () =
  Alcotest.run "fx_index"
    [
      ( "conformance",
        [
          Alcotest.test_case "all strategies, forest" `Quick test_conformance_forest;
          Alcotest.test_case "graph strategies, cyclic graph" `Quick test_conformance_graph;
          Alcotest.test_case "disk deployment" `Quick test_conformance_disk;
          Alcotest.test_case "borders-first ordering" `Quick test_conformance_borders_first;
          prop_conformance_random_graphs;
          prop_conformance_random_forests;
        ] );
      ( "ppo",
        [
          Alcotest.test_case "rejects non-forests" `Quick test_ppo_rejects_graphs;
          Alcotest.test_case "pre/post windows" `Quick test_ppo_pre_post;
          Alcotest.test_case "other axes" `Quick test_ppo_axes;
          Alcotest.test_case "linear size" `Quick test_ppo_size_linear;
          prop_ppo_rank_search_matches_fold;
          Alcotest.test_case "extend refuses a retagged node" `Quick
            test_ppo_extend_refuses_retagged;
        ] );
      ( "two_hop",
        [
          prop_two_hop_exact;
          prop_two_hop_any_order;
          prop_two_hop_weighted_exact;
          Alcotest.test_case "weighted validation" `Quick test_two_hop_weighted_validation;
          Alcotest.test_case "chain compression" `Quick test_two_hop_chain_compression;
          Alcotest.test_case "rejects bad order" `Quick test_two_hop_bad_order;
          Alcotest.test_case "cover witness" `Quick test_two_hop_labels_inspectable;
        ] );
      ( "hopi",
        [
          Alcotest.test_case "partition size irrelevant for answers" `Quick
            test_hopi_partition_sizes;
          Alcotest.test_case "wildcard sorted" `Quick test_hopi_wildcard_sorted;
        ] );
      ( "apex",
        [
          Alcotest.test_case "blocks respect tags" `Quick test_apex_blocks_respect_tags;
          Alcotest.test_case "extents partition nodes" `Quick test_apex_extents_partition;
          Alcotest.test_case "label paths" `Quick test_apex_label_path;
          prop_apex_bisimulation_summary_sound;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "2-hop roundtrip" `Quick test_two_hop_serialization;
          Alcotest.test_case "2-hop corrupt" `Quick test_two_hop_serialization_corrupt;
          Alcotest.test_case "ppo roundtrip" `Quick test_ppo_serialization;
          prop_two_hop_serialization_random;
        ] );
      ( "ak_index",
        [
          Alcotest.test_case "bounded refinement" `Quick test_ak_index;
          Alcotest.test_case "F&B refinement" `Quick test_fb_index;
          prop_fb_exact;
          prop_ak_exact;
        ] );
      ( "dataguide",
        [
          Alcotest.test_case "paths" `Quick test_dataguide_paths;
          Alcotest.test_case "state budget" `Quick test_dataguide_budget;
          Alcotest.test_case "path listing" `Quick test_dataguide_path_listing;
          prop_dataguide_targets_match_bfs;
        ] );
    ]
