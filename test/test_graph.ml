(* Unit and property tests for the graph substrate. *)

module Digraph = Fx_graph.Digraph
module Traversal = Fx_graph.Traversal
module Bitset = Fx_graph.Bitset
module Pq = Fx_graph.Priority_queue
module Run_merge = Fx_graph.Run_merge
module Uf = Fx_graph.Union_find
module Scc = Fx_graph.Scc
module Partition = Fx_graph.Partition
module Tc = Fx_graph.Transitive_closure
module Tc_estimate = Fx_graph.Tc_estimate
module H = Helpers

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Digraph --------------------------------------------------------- *)

let test_digraph_basic () =
  let g = Digraph.of_edges ~n:4 [ (0, 1); (0, 2); (2, 3); (0, 1) ] in
  check_int "nodes" 4 (Digraph.n_nodes g);
  check_int "edges deduped" 3 (Digraph.n_edges g);
  check_int "out 0" 2 (Digraph.out_degree g 0);
  check_int "in 3" 1 (Digraph.in_degree g 3);
  check "mem" true (Digraph.mem_edge g 0 2);
  check "not mem" false (Digraph.mem_edge g 2 0);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2); (2, 3) ] (Digraph.edges g)

let test_digraph_succ_sorted () =
  let g = Digraph.of_edges ~n:5 [ (0, 4); (0, 1); (0, 3); (0, 2) ] in
  Alcotest.(check (array int)) "sorted row" [| 1; 2; 3; 4 |] (Digraph.succ g 0)

let test_digraph_reverse () =
  let g = Digraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let r = Digraph.reverse g in
  check "rev edge" true (Digraph.mem_edge r 1 0);
  check "rev edge2" true (Digraph.mem_edge r 2 1);
  check_int "rev edges" 2 (Digraph.n_edges r)

let test_digraph_bad_edge () =
  Alcotest.check_raises "out of range" (Invalid_argument "Digraph: node 7 out of range [0,3)")
    (fun () -> ignore (Digraph.of_edges ~n:3 [ (0, 7) ]))

let test_digraph_induced () =
  let g = H.small_graph () in
  let sub, mapping = Digraph.induced g [| 2; 3; 4; 5 |] in
  check_int "sub nodes" 4 (Digraph.n_nodes sub);
  (* kept edges: 2->3, 2->4, 4->5 *)
  check_int "sub edges" 3 (Digraph.n_edges sub);
  Alcotest.(check (array int)) "mapping" [| 2; 3; 4; 5 |] mapping

let test_digraph_empty () =
  let g = Digraph.empty 3 in
  check_int "no edges" 0 (Digraph.n_edges g);
  check "self reach only" true (Traversal.reachable g 1 1);
  check "no cross reach" false (Traversal.reachable g 0 1)

let prop_reverse_involution =
  H.qtest "reverse (reverse g) = g" (H.digraph_arb ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      Digraph.edges (Digraph.reverse (Digraph.reverse g)) = Digraph.edges g)

let prop_degree_sum =
  H.qtest "sum of out-degrees = edge count" (H.digraph_arb ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let sum = ref 0 in
      for v = 0 to n - 1 do
        sum := !sum + Digraph.out_degree g v
      done;
      !sum = Digraph.n_edges g)

let prop_mem_edge_consistent =
  H.qtest "mem_edge agrees with edges list" (H.digraph_arb ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      List.for_all (fun (u, v) -> Digraph.mem_edge g u v) (Digraph.edges g)
      && List.for_all (fun (u, v) -> Digraph.mem_edge g u v) edges)

(* Dense rows (some above the insertion-sort cut-off) with duplicates:
   every successor and predecessor row is the sorted, deduplicated set
   the edge list gives. *)
let prop_rows_sorted_unique =
  H.qtest "succ/pred rows = sorted unique edge endpoints"
    (H.digraph_arb ~max_n:30 ~edge_factor:25.0 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let row key value u =
        Array.of_list
          (List.sort_uniq Int.compare
             (List.filter_map (fun e -> if key e = u then Some (value e) else None) edges))
      in
      List.for_all
        (fun u -> Digraph.succ g u = row fst snd u && Digraph.pred g u = row snd fst u)
        (List.init n Fun.id))

(* --- Bitset ---------------------------------------------------------- *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 99;
  check "mem 0" true (Bitset.mem s 0);
  check "mem 63" true (Bitset.mem s 63);
  check "not mem 50" false (Bitset.mem s 50);
  check_int "cardinal" 3 (Bitset.cardinal s);
  Bitset.remove s 63;
  check "removed" false (Bitset.mem s 63);
  check_int "cardinal after remove" 2 (Bitset.cardinal s)

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] in
  let b = Bitset.of_list 10 [ 2; 3; 4 ] in
  let i = Bitset.copy a in
  Bitset.inter_into i b;
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.to_list i);
  let u = Bitset.copy a in
  Bitset.union_into u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.to_list u)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.add s 8)

let prop_bitset_roundtrip =
  H.qtest "of_list/to_list roundtrip"
    QCheck.(list (int_bound 63))
    (fun xs ->
      let s = Bitset.of_list 64 xs in
      Bitset.to_list s = List.sort_uniq compare xs)

(* --- Priority queue --------------------------------------------------- *)

(* The minimum entry, removed, as [(priority, payload)]. *)
let pq_take q =
  if Pq.is_empty q then None
  else
    let p = Pq.min_prio q in
    Some (p, Pq.pop q)

let test_pq_order () =
  let q = Pq.create () in
  List.iter (fun (p, v) -> Pq.insert q p v) [ (5, "e"); (1, "a"); (3, "c"); (2, "b") ];
  let drain () =
    let rec go acc = match pq_take q with None -> List.rev acc | Some x -> go (x :: acc) in
    go []
  in
  Alcotest.(check (list (pair int string)))
    "sorted" [ (1, "a"); (2, "b"); (3, "c"); (5, "e") ] (drain ())

let test_pq_empty () =
  let q = Pq.create () in
  check "empty" true (Pq.is_empty q);
  check "no min" true (pq_take q = None);
  Pq.insert q 1 ();
  check "nonempty" false (Pq.is_empty q);
  Pq.clear q;
  check "cleared" true (Pq.is_empty q)

let prop_pq_sorts =
  H.qtest "extracts in non-decreasing priority"
    QCheck.(list small_int)
    (fun prios ->
      let q = Pq.create () in
      List.iter (fun p -> Pq.insert q p p) prios;
      let rec drain acc =
        match pq_take q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare prios)

(* The boxed heap [Pq] replaced, kept as the reference for its tie
   order: payloads in ['a option] slots, entries swapped one level at a
   time. *)
module Boxed_heap = struct
  type 'a t = { mutable prio : int array; mutable data : 'a option array; mutable size : int }

  let create () = { prio = Array.make 16 0; data = Array.make 16 None; size = 0 }

  let swap q i j =
    let p = q.prio.(i) in
    q.prio.(i) <- q.prio.(j);
    q.prio.(j) <- p;
    let d = q.data.(i) in
    q.data.(i) <- q.data.(j);
    q.data.(j) <- d

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if q.prio.(parent) > q.prio.(i) then begin
        swap q parent i;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.size && q.prio.(l) < q.prio.(!smallest) then smallest := l;
    if r < q.size && q.prio.(r) < q.prio.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let insert q prio v =
    if q.size = Array.length q.prio then begin
      let cap = 2 * Array.length q.prio in
      let prio = Array.make cap 0 and data = Array.make cap None in
      Array.blit q.prio 0 prio 0 q.size;
      Array.blit q.data 0 data 0 q.size;
      q.prio <- prio;
      q.data <- data
    end;
    q.prio.(q.size) <- prio;
    q.data.(q.size) <- Some v;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)

  let extract_min q =
    if q.size = 0 then None
    else begin
      let p = q.prio.(0) in
      let v = Option.get q.data.(0) in
      q.size <- q.size - 1;
      q.prio.(0) <- q.prio.(q.size);
      q.data.(0) <- q.data.(q.size);
      q.data.(q.size) <- None;
      if q.size > 0 then sift_down q 0;
      Some (p, v)
    end

  let clear q =
    Array.fill q.data 0 q.size None;
    q.size <- 0
end

type pq_op = Insert of int | Pop | Clear

(* Random interleavings over few priorities, so ties abound; each insert
   carries its sequence number, so a tie broken differently shows. *)
let pq_ops_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun p -> Insert p) (int_range 0 4));
        (4, return Pop);
        (1, return Clear);
      ]
  in
  QCheck.make
    ~print:(fun ops ->
      String.concat " "
        (List.map
           (function
             | Insert p -> Printf.sprintf "+%d" p
             | Pop -> "x"
             | Clear -> "c")
           ops))
    (list_size (int_range 0 200) op)

let prop_pq_matches_boxed =
  H.qtest ~count:300 "same (priority, value) sequence as the boxed heap" pq_ops_arb
    (fun ops ->
      let q = Pq.create () and r = Boxed_heap.create () in
      let seq = ref 0 in
      List.for_all
        (fun op ->
          let expected, got =
            match op with
            | Insert p ->
                incr seq;
                Pq.insert q p !seq;
                Boxed_heap.insert r p !seq;
                (None, None)
            | Pop -> (Boxed_heap.extract_min r, pq_take q)
            | Clear ->
                Pq.clear q;
                Boxed_heap.clear r;
                (None, None)
          in
          expected = got && Pq.length q = r.size
          && (r.size = 0 || Pq.min_prio q = r.prio.(0)))
        ops)

let test_pq_empty_raises () =
  let q : int Pq.t = Pq.create () in
  Alcotest.check_raises "min_prio" (Invalid_argument "Priority_queue.min_prio: empty") (fun () ->
      ignore (Pq.min_prio q));
  Alcotest.check_raises "pop" (Invalid_argument "Priority_queue.pop: empty") (fun () ->
      ignore (Pq.pop q))

(* --- Run merge ----------------------------------------------------------- *)

let test_run_merge_bits () =
  check_int "0 nodes" 0 (Run_merge.bits 0);
  check_int "1 node" 0 (Run_merge.bits 1);
  for k = 1 to 30 do
    check_int (Printf.sprintf "2^%d nodes" k) k (Run_merge.bits (1 lsl k));
    check_int (Printf.sprintf "2^%d + 1 nodes" k) (k + 1) (Run_merge.bits ((1 lsl k) + 1));
    if k >= 2 then check_int (Printf.sprintf "2^%d - 1 nodes" k) k (Run_merge.bits ((1 lsl k) - 1))
  done;
  let bits = Run_merge.bits 1000 in
  let key = Run_merge.pack ~bits 7 999 in
  check_int "dist" 7 (Run_merge.dist ~bits key);
  check_int "node" 999 (Run_merge.node ~bits key)

(* A merge case: [n] nodes, the node never emitted (or -1), and sources
   as (offset, run) with each run's (d, node) pairs ascending. *)
type merge_case = { n : int; exclude : int; sources : (int * (int * int) list) list }

(* Few nodes, distances and offsets, so ties across runs abound; runs
   of length 0 and 1 are common. *)
let merge_case_arb =
  let open QCheck.Gen in
  let case =
    int_range 1 12 >>= fun n ->
    let key = pair (int_range 0 4) (int_bound (n - 1)) in
    let run = map (List.sort_uniq compare) (list_size (int_range 0 5) key) in
    map2
      (fun exclude sources -> { n; exclude; sources })
      (int_range (-1) (n - 1))
      (list_size (int_range 0 6) (pair (int_range 0 6) run))
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "n=%d exclude=%d %s" c.n c.exclude
        (String.concat " "
           (List.map
              (fun (o, run) ->
                Printf.sprintf "@%d[%s]" o
                  (String.concat ";" (List.map (fun (d, v) -> Printf.sprintf "%d,%d" d v) run)))
              c.sources)))
    case

(* Every (offset + d, node) sorted, each node kept at its first one. *)
let merge_reference c =
  let all = List.concat_map (fun (o, run) -> List.map (fun (d, v) -> (o + d, v)) run) c.sources in
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (d, v) ->
      if v = c.exclude || Hashtbl.mem seen v then None
      else begin
        Hashtbl.replace seen v ();
        Some (v, d)
      end)
    (List.sort compare all)

type run_cursor = { base : int; keys : int array; mutable pos : int }

let run_step c =
  if c.pos < Array.length c.keys then begin
    c.pos <- c.pos + 1;
    c.base + c.keys.(c.pos - 1)
  end
  else -1

(* A merge over [c]'s sources: all added up front, or — [lazily] — each
   opened by the pre-pop hook once the front reaches its offset, nearest
   offset first. Returns the merge, the offsets opened so far and the
   pop count. *)
let run_merge_of ~lazily c =
  let bits = Run_merge.bits c.n in
  let cursor (o, run) =
    let keys = Array.of_list (List.map (fun (d, v) -> Run_merge.pack ~bits d v) run) in
    { base = Run_merge.pack ~bits o 0; keys; pos = 0 }
  in
  let pending = ref (List.stable_sort (fun (a, _) (b, _) -> compare a b) c.sources) in
  let opened = ref [] and pops = ref 0 in
  let rec open_reached m =
    match !pending with
    | ((o, _) as src) :: rest when o <= Run_merge.front m ->
        pending := rest;
        opened := o :: !opened;
        Run_merge.add m (cursor src);
        open_reached m
    | _ -> ()
  in
  let before_pop = if lazily then open_reached else ignore in
  let m =
    Run_merge.create ~bits ~exclude:c.exclude ~before_pop ~on_pop:(fun () -> incr pops)
      ~emit:(fun _ v d -> (v, d)) run_step
  in
  if not lazily then List.iter (fun src -> Run_merge.add m (cursor src)) c.sources;
  (m, opened, pops)

let rec merge_take m k =
  if k = 0 then [] else match Run_merge.next m with None -> [] | Some x -> x :: merge_take m (k - 1)

let prop_run_merge_reference =
  H.qtest ~count:500 "= sort and keep first occurrences" (QCheck.pair merge_case_arb QCheck.bool)
    (fun (c, lazily) ->
      let m, _, pops = run_merge_of ~lazily c in
      let keys = List.fold_left (fun acc (_, run) -> acc + List.length run) 0 c.sources in
      merge_take m max_int = merge_reference c && !pops = keys)

let prop_run_merge_prefix_opens =
  H.qtest ~count:500 "a k-prefix opens no source past its last distance"
    (QCheck.pair merge_case_arb (QCheck.int_range 1 8))
    (fun (c, k) ->
      let m, opened, _ = run_merge_of ~lazily:true c in
      match List.rev (merge_take m k) with
      | (_, last) :: _ as prefix when List.length prefix = k ->
          List.for_all (fun o -> o <= last) !opened
      | _ -> true)

(* --- Union-find -------------------------------------------------------- *)

let test_uf () =
  let uf = Uf.create 5 in
  check_int "classes" 5 (Uf.n_classes uf);
  check "union 0 1" true (Uf.union uf 0 1);
  check "union 1 2" true (Uf.union uf 1 2);
  check "re-union" false (Uf.union uf 0 2);
  check "same" true (Uf.same uf 0 2);
  check "not same" false (Uf.same uf 0 3);
  check_int "class size" 3 (Uf.class_size uf 1);
  check_int "classes after" 3 (Uf.n_classes uf)

(* --- Traversal ---------------------------------------------------------- *)

let test_bfs_distances () =
  let g = H.small_graph () in
  let d = Traversal.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 1; 2; 2; 3; 4; 5 |] d;
  let d2 = Traversal.bfs_distances g 5 in
  check_int "unreachable" (-1) d2.(0);
  check_int "cycle dist" 2 d2.(7)

let test_distance_and_path () =
  let g = H.small_graph () in
  check "dist 0->7" true (Traversal.distance g 0 7 = Some 5);
  check "dist 3->0" true (Traversal.distance g 3 0 = None);
  check "self" true (Traversal.distance g 4 4 = Some 0);
  match Traversal.shortest_path g 0 5 with
  | Some path ->
      Alcotest.(check (list int)) "path" [ 0; 2; 4; 5 ] path
  | None -> Alcotest.fail "expected path"

let test_descendants_sorted () =
  let g = H.small_graph () in
  let d = Traversal.descendants g 2 in
  check "self first" true (List.hd d = (2, 0));
  check "sorted" true (H.sorted_by_distance d);
  check_int "count" 6 (List.length d)

let test_dfs_forest_numbers () =
  let g = H.small_forest () in
  let num = Traversal.dfs_forest g in
  (* Preorder: 0 1 2 3 4; node 0 first, subtree of 2 contiguous. *)
  check_int "pre root" 0 num.pre.(0);
  check_int "depth 3" 2 num.depth.(3);
  check_int "parent 3" 2 num.parent.(3);
  check_int "parent root" (-1) num.parent.(0);
  (* post of an ancestor is greater than every descendant's. *)
  check "post order" true (num.post.(0) > num.post.(2) && num.post.(2) > num.post.(3))

let test_is_forest () =
  check "forest" true (Traversal.is_forest (H.small_forest ()));
  check "not forest (cycle)" false (Traversal.is_forest (H.small_graph ()));
  check "two parents" false
    (Traversal.is_forest (Digraph.of_edges ~n:3 [ (0, 2); (1, 2) ]))

let test_topological () =
  (match Traversal.topological_order (H.small_forest ()) with
  | None -> Alcotest.fail "forest is acyclic"
  | Some order ->
      let pos = Array.make 6 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Digraph.iter_edges (H.small_forest ()) (fun u v ->
          check "topo respects edges" true (pos.(u) < pos.(v))));
  check "cyclic" true (Traversal.topological_order (H.small_graph ()) = None)

let prop_bfs_triangle =
  H.qtest "triangle inequality over edges" (H.digraph_arb ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let ok = ref true in
      for s = 0 to min 4 (n - 1) do
        let d = Traversal.bfs_distances g s in
        Digraph.iter_edges g (fun u v ->
            if d.(u) >= 0 then ok := !ok && d.(v) >= 0 && d.(v) <= d.(u) + 1)
      done;
      !ok)

let prop_descendants_match_bfs =
  H.qtest "descendants = bfs distance set" (H.digraph_arb ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let d = Traversal.bfs_distances g 0 in
      let expected =
        List.filter (fun (_, dist) -> dist >= 0) (Array.to_list (Array.mapi (fun v x -> (v, x)) d))
      in
      H.same_results (Traversal.descendants g 0) expected)

(* --- SCC ------------------------------------------------------------------ *)

let test_scc_small () =
  let g = H.small_graph () in
  let scc = Scc.compute g in
  check_int "components" 7 scc.n_components;
  check "6 and 7 together" true (scc.component.(6) = scc.component.(7));
  check "0 and 1 apart" true (scc.component.(0) <> scc.component.(1))

let test_scc_condensation_dag () =
  let g = Digraph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (2, 3); (3, 4); (4, 5); (5, 3) ] in
  let scc, dag = Scc.condensation g in
  check_int "two components" 2 scc.n_components;
  check "dag acyclic" true (Traversal.is_acyclic dag);
  check_int "one condensed edge" 1 (Digraph.n_edges dag)

let prop_scc_mutual_reach =
  H.qtest "same component iff mutually reachable" (H.digraph_arb ~max_n:12 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let scc = Scc.compute g in
      List.for_all
        (fun (u, v) ->
          (scc.component.(u) = scc.component.(v))
          = (Traversal.reachable g u v && Traversal.reachable g v u))
        (H.all_pairs n))

let prop_condensation_edge_direction =
  H.qtest "condensation edges go to smaller ids" (H.digraph_arb ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let _, dag = Scc.condensation g in
      let ok = ref true in
      Digraph.iter_edges dag (fun c c' -> ok := !ok && c > c');
      !ok)

(* --- Reach_filter ------------------------------------------------------------- *)

module RF = Fx_graph.Reach_filter

(* A seeded random map of [n] nodes onto at most [n] groups. *)
let random_groups n seed =
  let rng = Fx_util.Rng.create seed in
  (n, Array.init n (fun _ -> Fx_util.Rng.int rng n))

let prop_reach_filter_sound =
  H.qtest "reach filter never rejects a reachable pair" (H.digraph_arb ~max_n:16 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      List.for_all
        (fun (n_groups, group_of) ->
          let f = RF.build ~n_groups ~group_of edges in
          List.for_all
            (fun (u, v) -> RF.may_reach f u v || not (Traversal.reachable g u v))
            (H.all_pairs n))
        [ (n, Array.init n Fun.id); random_groups n (List.length edges); (1, Array.make n 0) ])

let test_reach_filter_small () =
  (* 0 -> 1 -> 2 and 0 -> 3, one node per group *)
  let f = RF.build ~n_groups:4 ~group_of:[| 0; 1; 2; 3 |] [ (0, 1); (1, 2); (0, 3) ] in
  check "forward path" true (RF.may_reach f 0 2);
  check "against the edges" false (RF.may_reach f 2 0);
  check "sibling branches" false (RF.may_reach f 2 3 || RF.may_reach f 3 2);
  check_int "groups" 4 (RF.n_groups f);
  check_int "components" 4 (RF.n_components f);
  (* one group {0,1}: the pair is kept even without an edge 1 -> 0 *)
  let g = RF.build ~n_groups:2 ~group_of:[| 0; 0; 1 |] [ (0, 2) ] in
  check "same group" true (RF.may_reach g 1 0);
  check "no edge back" false (RF.may_reach g 2 0);
  match RF.build ~n_groups:2 ~group_of:[| 0; 1; 2 |] [ (0, 2) ] with
  | _ -> Alcotest.fail "group out of range accepted"
  | exception Invalid_argument _ -> ()

(* --- Partition -------------------------------------------------------------- *)

let test_partition_bounds () =
  let g = H.small_graph () in
  let a = Partition.bounded_bfs ~max_size:3 g in
  check "cover" true (Partition.check_cover ~n:8 a);
  Array.iter (fun s -> check "size bound" true (s <= 3)) a.sizes

let test_partition_whole () =
  let g = H.small_forest () in
  (* One part per weakly-connected component: the 5-node tree plus the
     isolated node 5. *)
  let a = Partition.bounded_bfs ~max_size:100 g in
  check_int "parts = components" 2 a.n_parts;
  check_int "no cut" 0 (Partition.cut_size g a.part)

let test_partition_by_units () =
  (* Units 0..3, two nodes each; weight 2 each; bound 4 -> pairs. *)
  let g = Digraph.of_edges ~n:8 [ (1, 2); (3, 4); (5, 6); (7, 0) ] in
  let units = [| 0; 0; 1; 1; 2; 2; 3; 3 |] in
  let a = Partition.by_units ~units ~unit_weight:[| 2; 2; 2; 2 |] ~max_size:4 g in
  check "cover" true (Partition.check_cover ~n:8 a);
  (* A unit is never split. *)
  for v = 0 to 6 do
    if units.(v) = units.(v + 1) then check "unit intact" true (a.part.(v) = a.part.(v + 1))
  done;
  Array.iter (fun s -> check "weight bound" true (s <= 4)) a.sizes

let prop_partition_cover =
  H.qtest "bounded_bfs covers all nodes within bound"
    (QCheck.pair (H.digraph_arb ()) (QCheck.int_range 1 10))
    (fun ((n, edges), max_size) ->
      let g = Digraph.of_edges ~n edges in
      let a = Partition.bounded_bfs ~max_size g in
      Partition.check_cover ~n a && Array.for_all (fun s -> s <= max_size) a.sizes)

let prop_partition_units_never_split =
  H.qtest "by_units never splits a unit"
    (H.digraph_arb ~max_n:16 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let units = Array.init n (fun v -> v / 3) in
      let n_units = 1 + ((n - 1) / 3) in
      let unit_weight = Array.make n_units 0 in
      Array.iter (fun u -> unit_weight.(u) <- unit_weight.(u) + 1) units;
      let a = Partition.by_units ~units ~unit_weight ~max_size:5 g in
      Partition.check_cover ~n a
      && List.for_all
           (fun (u, v) -> units.(u) <> units.(v) || a.part.(u) = a.part.(v))
           (H.all_pairs n))

(* --- Transitive closure -------------------------------------------------------- *)

let test_tc_small () =
  let g = H.small_graph () in
  let tc = Tc.compute g in
  check "reach" true (Tc.reachable tc 0 7);
  check "not reach" false (Tc.reachable tc 1 0);
  check "self" true (Tc.reachable tc 3 3);
  check "dist" true (Tc.distance tc 0 5 = Some 3);
  check "dist self" true (Tc.distance tc 2 2 = Some 0);
  check "dist none" true (Tc.distance tc 5 0 = None);
  check_int "pairs" 19 (Tc.n_pairs tc);
  check_int "bytes" (8 * 19) (Tc.size_bytes tc)

let prop_tc_matches_bfs =
  H.qtest "TC distances = BFS distances" (H.digraph_arb ~max_n:14 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let tc = Tc.compute g in
      List.for_all
        (fun (u, v) -> Tc.distance tc u v = Traversal.distance g u v)
        (H.all_pairs n))

let test_tc_estimate_accuracy () =
  (* A 2-level fanout tree: root reaches all 111 nodes. *)
  let edges = ref [] in
  for i = 1 to 10 do
    edges := (0, i) :: !edges;
    for j = 0 to 9 do
      edges := (i, 10 + (10 * i) + j - 9) :: !edges
    done
  done;
  let g = Digraph.of_edges ~n:111 !edges in
  let est = Tc_estimate.compute ~rounds:64 ~seed:1 g in
  let size = Tc_estimate.reach_size est 0 in
  check "root reach ~111" true (size > 70.0 && size < 160.0);
  let leaf = Tc_estimate.reach_size est 110 in
  check "leaf reach ~1" true (leaf > 0.5 && leaf < 2.0)

let prop_tc_estimate_scc_consistent =
  H.qtest ~count:30 "estimator equal within an SCC" (H.digraph_arb ~max_n:12 ())
    (fun (n, edges) ->
      let g = Digraph.of_edges ~n edges in
      let scc = Scc.compute g in
      let est = Tc_estimate.compute ~rounds:8 ~seed:3 g in
      List.for_all
        (fun (u, v) ->
          scc.component.(u) <> scc.component.(v)
          || abs_float (Tc_estimate.reach_size est u -. Tc_estimate.reach_size est v) < 1e-9)
        (H.all_pairs n))

let () =
  Alcotest.run "fx_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "sorted rows" `Quick test_digraph_succ_sorted;
          Alcotest.test_case "reverse" `Quick test_digraph_reverse;
          Alcotest.test_case "bad edge" `Quick test_digraph_bad_edge;
          Alcotest.test_case "induced" `Quick test_digraph_induced;
          Alcotest.test_case "empty" `Quick test_digraph_empty;
          prop_reverse_involution;
          prop_degree_sum;
          prop_mem_edge_consistent;
          prop_rows_sorted_unique;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "set ops" `Quick test_bitset_ops;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          prop_bitset_roundtrip;
        ] );
      ( "priority_queue",
        [
          Alcotest.test_case "ordering" `Quick test_pq_order;
          Alcotest.test_case "empty/clear" `Quick test_pq_empty;
          prop_pq_sorts;
          prop_pq_matches_boxed;
          Alcotest.test_case "empty min_prio/pop raise" `Quick test_pq_empty_raises;
        ] );
      ( "run_merge",
        [
          Alcotest.test_case "bits and packing" `Quick test_run_merge_bits;
          prop_run_merge_reference;
          prop_run_merge_prefix_opens;
        ] );
      ("union_find", [ Alcotest.test_case "basic" `Quick test_uf ]);
      ( "traversal",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "distance and path" `Quick test_distance_and_path;
          Alcotest.test_case "descendants sorted" `Quick test_descendants_sorted;
          Alcotest.test_case "dfs numbering" `Quick test_dfs_forest_numbers;
          Alcotest.test_case "is_forest" `Quick test_is_forest;
          Alcotest.test_case "topological" `Quick test_topological;
          prop_bfs_triangle;
          prop_descendants_match_bfs;
        ] );
      ( "scc",
        [
          Alcotest.test_case "small" `Quick test_scc_small;
          Alcotest.test_case "condensation" `Quick test_scc_condensation_dag;
          prop_scc_mutual_reach;
          prop_condensation_edge_direction;
        ] );
      ( "reach_filter",
        [
          Alcotest.test_case "small" `Quick test_reach_filter_small;
          prop_reach_filter_sound;
        ] );
      ( "partition",
        [
          Alcotest.test_case "bounds" `Quick test_partition_bounds;
          Alcotest.test_case "whole graph" `Quick test_partition_whole;
          Alcotest.test_case "by units" `Quick test_partition_by_units;
          prop_partition_cover;
          prop_partition_units_never_split;
        ] );
      ( "transitive_closure",
        [
          Alcotest.test_case "small" `Quick test_tc_small;
          prop_tc_matches_bfs;
          Alcotest.test_case "estimator accuracy" `Quick test_tc_estimate_accuracy;
          prop_tc_estimate_scc_consistent;
        ] );
    ]
