(* Ground truth: breadth-first distances on the generated collection's
   graph, and the checks a sampled answer must pass against them.

   Exact backends (the disk deployment, the coordinator over disk
   shards) must return true distances and the k nearest matches. The
   memory backend's evaluator is approximate by design (paper §5):
   distances across meta documents are upper bounds and the order is
   only roughly ascending, so an answer there must hold reachable,
   correctly tagged nodes at no less than their true distance, and as
   many of them as exist up to k. *)

module G = Fx_graph.Digraph

type mode = Exact | Approx

(* Multi-source BFS; [-1] marks unreachable nodes. [reverse] walks
   edges backwards (ancestor distances). *)
let bfs ?(reverse = false) g sources =
  let n = G.n_nodes g in
  let dist = Array.make n (-1) in
  let queue = Array.make (max 1 n) 0 in
  let tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  let head = ref 0 in
  let visit d v =
    if dist.(v) < 0 then begin
      dist.(v) <- d;
      queue.(!tail) <- v;
      incr tail
    end
  in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let d = dist.(u) + 1 in
    if reverse then G.iter_pred g u (visit d) else G.iter_succ g u (visit d)
  done;
  dist

let duplicate items =
  let seen = Hashtbl.create 16 in
  List.find_opt
    (fun (v, _) ->
      let dup = Hashtbl.mem seen v in
      Hashtbl.replace seen v ();
      dup)
    items

(* [check_items] judges one item answer [(node, dist)] against true
   distances [dist] from the query's start set. Candidates are the nodes
   at true distance >= [min_dist] whose tag satisfies [tag_ok] ([min_dist]
   is 1 for descendants, which exclude the start, and 0 for
   ancestors-or-self). *)
let check_items ~mode ~dist ~tag_ok ~min_dist ~k items =
  let n = Array.length dist in
  let candidate v = v >= 0 && v < n && dist.(v) >= min_dist && tag_ok v in
  let bad =
    List.find_map
      (fun (v, d) ->
        if v < 0 || v >= n then Some (Printf.sprintf "node %d out of range" v)
        else if dist.(v) < 0 then Some (Printf.sprintf "node %d is not reachable" v)
        else if not (tag_ok v) then Some (Printf.sprintf "node %d has the wrong tag" v)
        else if not (candidate v) then Some (Printf.sprintf "node %d is the start itself" v)
        else
          match mode with
          | Exact when d <> dist.(v) ->
              Some (Printf.sprintf "node %d at distance %d, true distance %d" v d dist.(v))
          | Approx when d < dist.(v) ->
              Some (Printf.sprintf "node %d at distance %d, below true distance %d" v d dist.(v))
          | Exact | Approx -> None)
      items
  in
  match (duplicate items, bad) with
  | Some (v, _), _ -> Error (Printf.sprintf "node %d appears twice" v)
  | None, Some msg -> Error msg
  | None, None ->
      let true_ds = ref [] in
      Array.iteri (fun v d -> if candidate v then true_ds := d :: !true_ds) dist;
      let want = min k (List.length !true_ds) in
      let got = List.length items in
      if got < want then Error (Printf.sprintf "short top-k: %d items, %d expected" got want)
      else if got > want then Error (Printf.sprintf "%d items, at most %d expected" got want)
      else if mode = Approx then Ok ()
      else
        let nearest = List.filteri (fun i _ -> i < want) (List.sort Int.compare !true_ds) in
        let answered = List.sort Int.compare (List.map snd items) in
        let show l = String.concat " " (List.map string_of_int l) in
        if nearest = answered then Ok ()
        else
          Error
            (Printf.sprintf "distances [%s] are not the k smallest true distances [%s]" (show answered)
               (show nearest))

(* A CONNECTED answer against the true distance [truth] ([-1] =
   unreachable) under the request's [max_dist]. The approximate
   evaluator prunes on its own upper-bound distances, so it may answer
   NODIST for a pair whose true distance is within [max_dist]; that is
   correct only when [engine] — its distance for the pair without the
   limit — exceeds [max_dist]. *)
let check_connected ~mode ~truth ~max_dist ?(engine = fun () -> None) answer =
  let within = truth >= 0 && truth <= max_dist in
  match (mode, answer) with
  | Exact, Some d when within && d = truth -> Ok ()
  | Exact, None when not within -> Ok ()
  | Approx, Some d when truth >= 0 && d >= truth && d <= max_dist -> Ok ()
  | Approx, None when not within -> Ok ()
  | Approx, None when (match engine () with Some d -> d > max_dist | None -> false) -> Ok ()
  | _, Some d -> Error (Printf.sprintf "DIST %d, true distance %d" d truth)
  | _, None -> Error (Printf.sprintf "NODIST, true distance %d" truth)
