module Digraph = Fx_graph.Digraph
module Tc_estimate = Fx_graph.Tc_estimate

(* Growable int-pair buffer: (hop rank, distance) appended in processing
   order, hence sorted by hop rank — queries merge-join two such arrays. *)
module Vec = struct
  type t = { mutable hop : int array; mutable dist : int array; mutable len : int }

  let create () = { hop = [||]; dist = [||]; len = 0 }

  let push v h d =
    if v.len = Array.length v.hop then begin
      let cap = max 4 (2 * v.len) in
      let hop = Array.make cap 0 and dist = Array.make cap 0 in
      Array.blit v.hop 0 hop 0 v.len;
      Array.blit v.dist 0 dist 0 v.len;
      v.hop <- hop;
      v.dist <- dist
    end;
    v.hop.(v.len) <- h;
    v.dist.(v.len) <- d;
    v.len <- v.len + 1
end

type t = {
  n : int;
  rank_of : int array;      (* node -> processing rank *)
  node_of : int array;      (* rank -> node *)
  in_lab : Vec.t array;     (* L_in(v): hops that reach v *)
  out_lab : Vec.t array;    (* L_out(v): hops v reaches *)
}

(* Merge-join of L_out(x) and L_in(y), both sorted by hop rank. *)
let query_dist t x y =
  if x = y then 0
  else begin
    let ox = t.out_lab.(x) and iy = t.in_lab.(y) in
    let best = ref max_int in
    let i = ref 0 and j = ref 0 in
    while !i < ox.Vec.len && !j < iy.Vec.len do
      let hi = ox.Vec.hop.(!i) and hj = iy.Vec.hop.(!j) in
      if hi = hj then begin
        let d = ox.Vec.dist.(!i) + iy.Vec.dist.(!j) in
        if d < !best then best := d;
        incr i;
        incr j
      end
      else if hi < hj then incr i
      else incr j
    done;
    !best
  end

(* Landmark order: descending estimated |ancestors(v)| * |descendants(v)|
   — the number of reachable pairs a hop at [v] can cover, i.e. the
   greedy objective of Cohen et al.'s 2-hop cover construction. The set
   sizes come from Cohen's own randomised reach-size estimator, so the
   order costs O(rounds * (n + m)). On a path this yields the midpoint-
   first bisection order (near-linear labels); on hub-shaped XML graphs
   it picks the hubs first, like the degree heuristic. *)
let default_order g =
  let n = Digraph.n_nodes g in
  let nodes = Array.init n (fun i -> i) in
  if n > 1 then begin
    let fwd = Tc_estimate.compute ~rounds:8 ~seed:0x2b0b g in
    let bwd = Tc_estimate.compute ~rounds:8 ~seed:0x2b0c (Digraph.reverse g) in
    let weight v = Tc_estimate.reach_size fwd v *. Tc_estimate.reach_size bwd v in
    let w = Array.init n weight in
    Array.sort
      (fun a b ->
        match Float.compare w.(b) w.(a) with 0 -> Int.compare a b | c -> c)
      nodes
  end;
  nodes

let build ?order g =
  let n = Digraph.n_nodes g in
  let node_of = match order with Some o -> Array.copy o | None -> default_order g in
  if Array.length node_of <> n then invalid_arg "Two_hop.build: order length mismatch";
  let rank_of = Array.make n (-1) in
  Array.iteri
    (fun r v ->
      if v < 0 || v >= n || rank_of.(v) <> -1 then
        invalid_arg "Two_hop.build: order is not a permutation";
      rank_of.(v) <- r)
    node_of;
  let in_lab = Array.init n (fun _ -> Vec.create ()) in
  let out_lab = Array.init n (fun _ -> Vec.create ()) in
  let t = { n; rank_of; node_of; in_lab; out_lab } in
  let dist = Array.make n (-1) in
  let touched = ref [] in
  let queue = Queue.create () in
  (* One pruned BFS; [labels] receives (hop rank, d) for every kept node,
     [next] enumerates the traversal direction, [q] answers the pruning
     query for the current landmark. *)
  let pruned_bfs root rank ~next ~q ~labels =
    Queue.clear queue;
    dist.(root) <- 0;
    touched := [ root ];
    Queue.add root queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      let d = dist.(u) in
      (* Prune when an earlier landmark already certifies a path of
         length <= d; the landmark itself (d = 0, u = root) never is. *)
      if u = root || q u > d then begin
        Vec.push labels.(u) rank d;
        next u (fun w ->
            if dist.(w) = -1 then begin
              dist.(w) <- d + 1;
              touched := w :: !touched;
              Queue.add w queue
            end)
      end
    done;
    List.iter (fun v -> dist.(v) <- -1) !touched
  in
  for rank = 0 to n - 1 do
    let lm = node_of.(rank) in
    (* Forward BFS: lm reaches u, so lm enters L_in(u). *)
    pruned_bfs lm rank
      ~next:(fun u f -> Digraph.iter_succ g u f)
      ~q:(fun u -> query_dist t lm u)
      ~labels:in_lab;
    (* Backward BFS: u reaches lm, so lm enters L_out(u). *)
    pruned_bfs lm rank
      ~next:(fun u f -> Digraph.iter_pred g u f)
      ~q:(fun u -> query_dist t u lm)
      ~labels:out_lab
  done;
  t

(* Weighted variant: the same pruned landmark labeling with Dijkstra
   in place of BFS, over an explicit (src, dst, weight >= 0) edge list.
   The pruning rule is unchanged — an entry is redundant whenever an
   earlier landmark already certifies a path no longer than the settled
   distance — and its exactness argument never uses unit weights, so
   the oracle stays exact. Label entries still land in ascending hop
   rank (one landmark per outer iteration, at most one entry per node
   per run), so [query_dist], [serialize] and [deserialize] are shared
   verbatim with the unit-weight build. *)
let build_weighted ?order ~n edges =
  Array.iter
    (fun (u, v, w) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Two_hop.build_weighted: edge endpoint out of range";
      if w < 0 then invalid_arg "Two_hop.build_weighted: negative edge weight")
    edges;
  let node_of =
    match order with
    | Some o -> Array.copy o
    | None ->
        (* The coverage estimator only needs who-reaches-whom, which
           the weights do not change: rank on the unit topology. *)
        default_order
          (Digraph.of_edges_array ~n (Array.map (fun (u, v, _) -> (u, v)) edges))
  in
  if Array.length node_of <> n then
    invalid_arg "Two_hop.build_weighted: order length mismatch";
  let rank_of = Array.make n (-1) in
  Array.iteri
    (fun r v ->
      if v < 0 || v >= n || rank_of.(v) <> -1 then
        invalid_arg "Two_hop.build_weighted: order is not a permutation";
      rank_of.(v) <- r)
    node_of;
  let fwd = Array.make n [] and bwd = Array.make n [] in
  Array.iter
    (fun (u, v, w) ->
      fwd.(u) <- (v, w) :: fwd.(u);
      bwd.(v) <- (u, w) :: bwd.(v))
    edges;
  let in_lab = Array.init n (fun _ -> Vec.create ()) in
  let out_lab = Array.init n (fun _ -> Vec.create ()) in
  let t = { n; rank_of; node_of; in_lab; out_lab } in
  let module PQ = Fx_graph.Priority_queue in
  let dist = Array.make n max_int in
  let pq = PQ.create () in
  let touched = ref [] in
  let pruned_dijkstra root rank ~adj ~q ~labels =
    PQ.clear pq;
    dist.(root) <- 0;
    touched := [ root ];
    PQ.insert pq 0 root;
    let rec drain () =
      if not (PQ.is_empty pq) then begin
        let d = PQ.min_prio pq in
        let u = PQ.pop pq in
        (* Lazy deletion: every insert strictly lowers [dist.(u)], so
           exactly one queue entry carries the settled distance and the
           stale ones test strictly greater. *)
        if d = dist.(u) then
          if u = root || q u > d then begin
            Vec.push labels.(u) rank d;
            List.iter
              (fun (v, w) ->
                let dv = d + w in
                if dv < dist.(v) then begin
                  if dist.(v) = max_int then touched := v :: !touched;
                  dist.(v) <- dv;
                  PQ.insert pq dv v
                end)
              adj.(u)
          end;
        drain ()
      end
    in
    drain ();
    List.iter (fun v -> dist.(v) <- max_int) !touched
  in
  for rank = 0 to n - 1 do
    let lm = node_of.(rank) in
    pruned_dijkstra lm rank ~adj:fwd ~q:(fun u -> query_dist t lm u) ~labels:in_lab;
    pruned_dijkstra lm rank ~adj:bwd ~q:(fun u -> query_dist t u lm) ~labels:out_lab
  done;
  t

let distance t x y =
  let d = query_dist t x y in
  if d = max_int then None else Some d

let reachable t x y = query_dist t x y < max_int

let entries t =
  let sum = ref 0 in
  Array.iter (fun v -> sum := !sum + v.Vec.len) t.in_lab;
  Array.iter (fun v -> sum := !sum + v.Vec.len) t.out_lab;
  !sum

let size_bytes t = 8 * entries t

let max_label t =
  let m = ref 0 in
  Array.iter (fun v -> if v.Vec.len > !m then m := v.Vec.len) t.in_lab;
  Array.iter (fun v -> if v.Vec.len > !m then m := v.Vec.len) t.out_lab;
  !m

(* --- persistence --------------------------------------------------- *)

let magic = "flix-2hop-v1"

let serialize t =
  let w = Fx_util.Codec.Writer.create ~magic in
  let module W = Fx_util.Codec.Writer in
  W.int w t.n;
  W.int_array w t.rank_of;
  W.int_array w t.node_of;
  let write_labels labels =
    Array.iter
      (fun (v : Vec.t) ->
        W.int w v.Vec.len;
        for i = 0 to v.Vec.len - 1 do
          W.int w v.Vec.hop.(i);
          W.int w v.Vec.dist.(i)
        done)
      labels
  in
  write_labels t.in_lab;
  write_labels t.out_lab;
  W.contents w

let deserialize data =
  let module R = Fx_util.Codec.Reader in
  let r = R.create ~magic data in
  let n = R.int r in
  if n < 0 then raise (Fx_util.Codec.Corrupt "negative node count");
  let rank_of = R.int_array r in
  let node_of = R.int_array r in
  if Array.length rank_of <> n || Array.length node_of <> n then
    raise (Fx_util.Codec.Corrupt "rank/node table length mismatch");
  Array.iter
    (fun v ->
      if v < 0 || v >= n then raise (Fx_util.Codec.Corrupt "rank out of range"))
    rank_of;
  Array.iteri
    (fun rank v ->
      if v < 0 || v >= n || rank_of.(v) <> rank then
        raise (Fx_util.Codec.Corrupt "node table is not the inverse permutation"))
    node_of;
  let read_labels () =
    Array.init n (fun _ ->
        let len = R.int r in
        if len < 0 then raise (Fx_util.Codec.Corrupt "negative label length");
        let vec = Vec.create () in
        for _ = 1 to len do
          let hop = R.int r in
          let dist = R.int r in
          if hop < 0 || hop >= n || dist < 0 then
            raise (Fx_util.Codec.Corrupt "label entry out of range");
          Vec.push vec hop dist
        done;
        vec)
  in
  let in_lab = read_labels () in
  let out_lab = read_labels () in
  R.expect_end r;
  { n; rank_of; node_of; in_lab; out_lab }

type side = In | Out

let side_labels t = function In -> t.in_lab | Out -> t.out_lab
let label_length t side v = (side_labels t side).(v).Vec.len

let iter_label t side v f =
  let vec = (side_labels t side).(v) in
  for i = 0 to vec.Vec.len - 1 do
    f vec.Vec.hop.(i) vec.Vec.dist.(i)
  done

let n_nodes t = t.n

let label_nodes t vec =
  List.init vec.Vec.len (fun i -> t.node_of.(vec.Vec.hop.(i)))

let in_label_nodes t v = label_nodes t t.in_lab.(v)
let out_label_nodes t v = label_nodes t t.out_lab.(v)
