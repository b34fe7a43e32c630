type t = {
  n : int;
  m : int;
  succ_off : int array; (* length n+1 *)
  succ_dst : int array; (* length m, sorted within each row *)
  pred_off : int array;
  pred_src : int array;
}

let n_nodes g = g.n
let n_edges g = g.m

let check_endpoint n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of range [0,%d)" u n)

(* Sorts [a.(lo) .. a.(hi - 1)] in place: insertion sort for the short
   rows that dominate linked XML graphs, the library sort otherwise. *)
let sort_range a lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let row = Array.sub a lo (hi - lo) in
    Array.sort Int.compare row;
    Array.blit row 0 a lo (hi - lo)
  end

(* Prefix sums turning per-node counts at [off.(u + 1)] into row offsets. *)
let accumulate off =
  for i = 1 to Array.length off - 1 do
    off.(i) <- off.(i) + off.(i - 1)
  done

(* Successor rows by counting sort on the source, each row then sorted
   and deduplicated in place; predecessor rows by a second counting sort
   over the finished successor rows, which visits sources in ascending
   order and so leaves every predecessor row sorted. No comparison sort
   runs over the whole edge array. *)
let of_edges_array ~n edges =
  let raw_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (u, v) ->
      check_endpoint n u;
      check_endpoint n v;
      raw_off.(u + 1) <- raw_off.(u + 1) + 1)
    edges;
  accumulate raw_off;
  let dst = Array.make (Array.length edges) 0 in
  let cursor = Array.sub raw_off 0 n in
  Array.iter
    (fun (u, v) ->
      dst.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1)
    edges;
  (* Compact the deduplicated rows towards the front: row [u] is written
     at or before its raw start, so no unread entry is overwritten. *)
  let succ_off = Array.make (n + 1) 0 in
  let m = ref 0 in
  for u = 0 to n - 1 do
    let lo = raw_off.(u) and hi = raw_off.(u + 1) in
    sort_range dst lo hi;
    for i = lo to hi - 1 do
      if i = lo || dst.(i) <> dst.(i - 1) then begin
        dst.(!m) <- dst.(i);
        incr m
      end
    done;
    succ_off.(u + 1) <- !m
  done;
  let m = !m in
  let succ_dst = Array.sub dst 0 m in
  let pred_off = Array.make (n + 1) 0 in
  Array.iter (fun v -> pred_off.(v + 1) <- pred_off.(v + 1) + 1) succ_dst;
  accumulate pred_off;
  let pred_src = Array.make m 0 in
  let cursor = Array.sub pred_off 0 n in
  for u = 0 to n - 1 do
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_dst.(i) in
      pred_src.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { n; m; succ_off; succ_dst; pred_off; pred_src }

let of_edges ~n edges = of_edges_array ~n (Array.of_list edges)
let empty n = of_edges_array ~n [||]

let out_degree g u =
  check_endpoint g.n u;
  g.succ_off.(u + 1) - g.succ_off.(u)

let in_degree g u =
  check_endpoint g.n u;
  g.pred_off.(u + 1) - g.pred_off.(u)

let succ g u =
  check_endpoint g.n u;
  Array.sub g.succ_dst g.succ_off.(u) (g.succ_off.(u + 1) - g.succ_off.(u))

let pred g u =
  check_endpoint g.n u;
  Array.sub g.pred_src g.pred_off.(u) (g.pred_off.(u + 1) - g.pred_off.(u))

let iter_succ g u f =
  check_endpoint g.n u;
  for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
    f g.succ_dst.(i)
  done

let iter_pred g u f =
  check_endpoint g.n u;
  for i = g.pred_off.(u) to g.pred_off.(u + 1) - 1 do
    f g.pred_src.(i)
  done

let fold_succ g u f init =
  check_endpoint g.n u;
  let acc = ref init in
  for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
    acc := f !acc g.succ_dst.(i)
  done;
  !acc

let fold_pred g u f init =
  check_endpoint g.n u;
  let acc = ref init in
  for i = g.pred_off.(u) to g.pred_off.(u + 1) - 1 do
    acc := f !acc g.pred_src.(i)
  done;
  !acc

let mem_edge g u v =
  check_endpoint g.n u;
  check_endpoint g.n v;
  let lo = ref g.succ_off.(u) and hi = ref (g.succ_off.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = g.succ_dst.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_edges g f =
  for u = 0 to g.n - 1 do
    iter_succ g u (fun v -> f u v)
  done

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = g.succ_off.(u + 1) - 1 downto g.succ_off.(u) do
      acc := (u, g.succ_dst.(i)) :: !acc
    done
  done;
  !acc

let reverse g =
  {
    n = g.n;
    m = g.m;
    succ_off = g.pred_off;
    succ_dst = g.pred_src;
    pred_off = g.succ_off;
    pred_src = g.succ_dst;
  }

let induced g nodes =
  let nodes = Array.copy nodes in
  Array.sort Int.compare nodes;
  Array.iteri
    (fun i u ->
      check_endpoint g.n u;
      if i > 0 && nodes.(i - 1) = u then
        invalid_arg "Digraph.induced: duplicate node")
    nodes;
  let k = Array.length nodes in
  (* local id of a global node, or -1 *)
  let local = Hashtbl.create (2 * k) in
  Array.iteri (fun i u -> Hashtbl.replace local u i) nodes;
  let acc = ref [] in
  Array.iteri
    (fun lu u ->
      iter_succ g u (fun v ->
          match Hashtbl.find_opt local v with
          | Some lv -> acc := (lu, lv) :: !acc
          | None -> ()))
    nodes;
  (of_edges ~n:k !acc, nodes)

let map_nodes g ~f ~n =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (f u, f v) :: !acc);
  of_edges ~n !acc

let pp ppf g =
  Format.fprintf ppf "@[<v>digraph (%d nodes, %d edges)" g.n g.m;
  for u = 0 to g.n - 1 do
    if out_degree g u > 0 then begin
      Format.fprintf ppf "@,%d ->" u;
      iter_succ g u (fun v -> Format.fprintf ppf " %d" v)
    end
  done;
  Format.fprintf ppf "@]"
