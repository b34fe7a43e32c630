module Digraph = Fx_graph.Digraph
module Traversal = Fx_graph.Traversal
module Bitset = Fx_graph.Bitset

(* The postorder rank is not stored: in a DFS forest the nodes finished
   before [v] are those entered before it that are not its ancestors,
   plus its own descendants, so post v = pre v - depth v + subtree v - 1.
   Its table's memory holds the per-tag rank lists instead. *)
type t = {
  dg : Path_index.data_graph;
  pre : int array;
  depth : int array;
  parent : int array;
  order : int array;       (* node at each preorder rank *)
  subtree : int array;     (* subtree size per node *)
  by_tag : int array array; (* per tag id: its nodes' preorder ranks, ascending *)
}

exception Not_a_forest

let is_buildable (dg : Path_index.data_graph) = Traversal.is_forest dg.graph

(* The tag lists of [prev] with the ranks [from .. n - 1] appended: one
   pass over [order], visited in rank order, so every list stays
   ascending without a sort. [prev] lists are shared, never written. *)
let rank_tags ~prev (dg : Path_index.data_graph) order ~from =
  let n = Array.length order in
  let k = Int.max (Array.length prev) (Path_index.n_tags dg) in
  let old w = if w < Array.length prev then prev.(w) else [||] in
  let fill = Array.init k (fun w -> Array.length (old w)) in
  let counts = Array.make k 0 in
  for r = from to n - 1 do
    let w = dg.tag.(order.(r)) in
    counts.(w) <- counts.(w) + 1
  done;
  let by_tag =
    Array.init k (fun w ->
        if counts.(w) = 0 then old w
        else begin
          let a = Array.make (fill.(w) + counts.(w)) 0 in
          Array.blit (old w) 0 a 0 fill.(w);
          a
        end)
  in
  for r = from to n - 1 do
    let w = dg.tag.(order.(r)) in
    by_tag.(w).(fill.(w)) <- r;
    fill.(w) <- fill.(w) + 1
  done;
  by_tag

let build (dg : Path_index.data_graph) =
  if not (Traversal.is_forest dg.graph) then raise Not_a_forest;
  let num = Traversal.dfs_forest dg.graph in
  let n = Digraph.n_nodes dg.graph in
  let subtree = Array.make n 1 in
  (* Children precede parents in reverse preorder, so one sweep suffices. *)
  for r = n - 1 downto 0 do
    let v = num.order.(r) in
    let p = num.parent.(v) in
    if p >= 0 then subtree.(p) <- subtree.(p) + subtree.(v)
  done;
  {
    dg;
    pre = num.pre;
    depth = num.depth;
    parent = num.parent;
    order = num.order;
    subtree;
    by_tag = rank_tags ~prev:[||] dg num.order ~from:0;
  }

(* Incremental maintenance for the append-only delta: [dg] is the old
   data graph plus whole new trees on the appended node ids. DFS visits
   in-degree-zero roots in ascending id order with global pre/post
   counters, so the old numbering is byte-identical inside the new one —
   we copy the old tables and traverse only the appended trees. Any
   other shape of change (edges into or out of the old node range, an
   old node whose tag changed, a non-forest suffix) returns [None] and
   the caller rebuilds. *)
let extend t (dg : Path_index.data_graph) =
  let old_n = Array.length t.pre in
  let n = Digraph.n_nodes dg.graph in
  let same_ints a b =
    let a = Array.copy a and b = Array.copy b in
    Array.sort Int.compare a;
    Array.sort Int.compare b;
    Array.length a = Array.length b
    &&
    try
      Array.iteri (fun i x -> if x <> b.(i) then raise Exit) a;
      true
    with Exit -> false
  in
  let old_edges_intact =
    (* Old nodes keep exactly their old successor sets, and nothing new
       points back into them. *)
    try
      for v = 0 to old_n - 1 do
        if not (same_ints (Digraph.succ t.dg.graph v) (Digraph.succ dg.graph v)) then
          raise Exit;
        if t.dg.tag.(v) <> dg.tag.(v) then raise Exit
      done;
      for v = old_n to n - 1 do
        Digraph.iter_succ dg.graph v (fun c -> if c < old_n then raise Exit)
      done;
      true
    with Exit -> false
  in
  if n <= old_n || not old_edges_intact then None
  else begin
    let suffix_is_forest =
      try
        for v = old_n to n - 1 do
          if Digraph.in_degree dg.graph v > 1 then raise Exit
        done;
        (* The suffix is acyclic iff DFS from its in-degree-zero roots
           reaches every new node exactly once; checked below. *)
        true
      with Exit -> false
    in
    if not suffix_is_forest then None
    else begin
      let grow a = Array.append a (Array.make (n - old_n) (-1)) in
      let pre = grow t.pre in
      let depth = grow t.depth in
      let parent = grow t.parent in
      let order = grow t.order in
      let subtree = Array.append t.subtree (Array.make (n - old_n) 1) in
      let pre_counter = ref old_n in
      let visit root =
        if pre.(root) = -1 then begin
          let stack = Stack.create () in
          pre.(root) <- !pre_counter;
          order.(!pre_counter) <- root;
          incr pre_counter;
          depth.(root) <- 0;
          Stack.push (root, ref 0, Digraph.succ dg.graph root) stack;
          while not (Stack.is_empty stack) do
            let u, next, adj = Stack.top stack in
            if !next >= Array.length adj then ignore (Stack.pop stack)
            else begin
              let v = adj.(!next) in
              incr next;
              if pre.(v) = -1 then begin
                pre.(v) <- !pre_counter;
                order.(!pre_counter) <- v;
                incr pre_counter;
                depth.(v) <- depth.(u) + 1;
                parent.(v) <- u;
                Stack.push (v, ref 0, Digraph.succ dg.graph v) stack
              end
            end
          done
        end
      in
      for v = old_n to n - 1 do
        if Digraph.in_degree dg.graph v = 0 then visit v
      done;
      if !pre_counter < n then None (* a cycle in the suffix left nodes unvisited *)
      else begin
        for r = n - 1 downto old_n do
          let v = order.(r) in
          let p = parent.(v) in
          if p >= 0 then subtree.(p) <- subtree.(p) + subtree.(v)
        done;
        let by_tag = rank_tags ~prev:t.by_tag dg order ~from:old_n in
        Some { dg; pre; depth; parent; order; subtree; by_tag }
      end
    end
  end

let pre t v = t.pre.(v)
let post t v = t.pre.(v) - t.depth.(v) + t.subtree.(v) - 1
let depth t v = t.depth.(v)

let reachable t x y = t.pre.(x) <= t.pre.(y) && t.pre.(y) < t.pre.(x) + t.subtree.(x)

let distance t x y = if reachable t x y then Some (t.depth.(y) - t.depth.(x)) else None

(* First index [i] of the ascending [ranks] with [ranks.(i) >= r]. *)
let lower_bound (ranks : int array) r =
  let lo = ref 0 and hi = ref (Array.length ranks) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ranks.(mid) < r then lo := mid + 1 else hi := mid
  done;
  !lo

(* The (node, distance) pairs of the nodes [node_at first .. node_at
   (last - 1)], all in [x]'s subtree, in (distance, node) order. *)
let sorted_pairs t x node_at first last =
  let acc = ref [] in
  for i = last - 1 downto first do
    let v = node_at i in
    acc := (v, t.depth.(v) - t.depth.(x)) :: !acc
  done;
  Path_index.sort_results !acc

(* The members of the ascending [ranks] inside [x]'s preorder window:
   its descendants occupy the contiguous preorder range
   [pre x, pre x + subtree x). *)
let window t x ranks =
  let lo = t.pre.(x) in
  let first = lower_bound ranks lo in
  let last = lower_bound ranks (lo + t.subtree.(x)) in
  if first = last then [] else sorted_pairs t x (fun i -> t.order.(ranks.(i))) first last

let descendants_by_tag t x want =
  match want with
  | None ->
      let lo = t.pre.(x) in
      sorted_pairs t x (fun r -> t.order.(r)) lo (lo + t.subtree.(x))
  | Some w when w < 0 || w >= Array.length t.by_tag -> []
  | Some w -> window t x t.by_tag.(w)

(* Walking up from [x] meets each ancestor once, at distances 0, 1, 2,
   ...: already (distance, node) order. [f] is called on those that
   [keep] accepts, until it answers false. *)
let iter_ancestors t keep x f =
  let rec walk v d =
    if ((not (keep v)) || f ~link:v ~dist:d) && t.parent.(v) >= 0 then walk t.parent.(v) (d + 1)
  in
  walk x 0

let collect iter =
  let acc = ref [] in
  iter (fun ~link ~dist ->
      acc := (link, dist) :: !acc;
      true);
  List.rev !acc

let ancestors_by_tag t x want =
  match want with
  | None -> collect (iter_ancestors t (fun _ -> true) x)
  | Some w -> collect (iter_ancestors t (fun v -> t.dg.tag.(v) = w) x)

(* --- staged link rows ------------------------------------------------ *)

module I32 = Bigarray.Array1

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) I32.t

(* Row [x] is [links.{offsets.{x}} .. links.{offsets.{x + 1} - 1}]. A
   distance is not stored: it is [depth lv - depth x], read from the
   numbering's depths, which the rows share. An empty set keeps no
   offsets at all. *)
type link_rows = { depths : int array; offsets : int32s; links : int32s }

let int32s n = I32.create Bigarray.int32 Bigarray.c_layout n

(* Each member is appended to the row of every ancestor-or-self by a
   walk up its parent chain; the members go in (depth, node) order, so
   within any one row (whose distances are the members' depths minus a
   constant) they land in (distance, node) order without a per-row
   sort. One walk counts the rows' lengths, the second fills them. *)
let link_rows t set =
  let n = Array.length t.pre in
  let members = Array.of_list (Bitset.to_list set) in
  if Array.length members = 0 then { depths = t.depth; offsets = int32s 0; links = int32s 0 }
  else begin
    Array.stable_sort (fun a b -> Int.compare t.depth.(a) t.depth.(b)) members;
    let fill = Array.make (n + 1) 0 in
    let rec up v f =
      f v;
      if t.parent.(v) >= 0 then up t.parent.(v) f
    in
    Array.iter (fun lv -> up lv (fun a -> fill.(a + 1) <- fill.(a + 1) + 1)) members;
    for x = 1 to n do
      fill.(x) <- fill.(x) + fill.(x - 1)
    done;
    if fill.(n) > Int32.to_int Int32.max_int then invalid_arg "Ppo.link_rows: table too large";
    let offsets = int32s (n + 1) in
    Array.iteri (fun x o -> offsets.{x} <- Int32.of_int o) fill;
    let links = int32s fill.(n) in
    Array.iter
      (fun lv ->
        up lv (fun a ->
            links.{fill.(a)} <- Int32.of_int lv;
            fill.(a) <- fill.(a) + 1))
      members;
    { depths = t.depth; offsets; links }
  end

let iter_link_row r x f =
  if I32.dim r.offsets > 0 then begin
    let dx = r.depths.(x) in
    let stop = Int32.to_int r.offsets.{x + 1} in
    let rec go i =
      if i < stop then begin
        let lv = Int32.to_int r.links.{i} in
        if f ~link:lv ~dist:(r.depths.(lv) - dx) then go (i + 1)
      end
    in
    go (Int32.to_int r.offsets.{x})
  end

let link_row_pairs r = I32.dim r.links
let link_row_bytes r = 4 * (I32.dim r.offsets + I32.dim r.links)

let iter_ancestors_in t set x f = iter_ancestors t (Bitset.mem set) x f

let restricted_descendants t set =
  let rows = link_rows t set in
  fun x -> collect (iter_link_row rows x)

let restricted_ancestors t set x = collect (iter_ancestors_in t set x)

let parent t v = if t.parent.(v) < 0 then None else Some t.parent.(v)

let children t v =
  Digraph.fold_succ t.dg.graph v (fun acc c -> c :: acc) [] |> List.rev

let following t v =
  let stop = t.pre.(v) + t.subtree.(v) in
  let acc = ref [] in
  for r = Array.length t.order - 1 downto stop do
    acc := t.order.(r) :: !acc
  done;
  !acc

let preceding t v =
  (* Nodes before v in document order that are not its ancestors. *)
  let acc = ref [] in
  for r = t.pre.(v) - 1 downto 0 do
    let u = t.order.(r) in
    if post t u < post t v then acc := u :: !acc
  done;
  !acc

(* The paper's PPO entry: pre, post, depth per node, three 4-byte
   fields. The tables kept here to answer in O(answer) (preorder inverse,
   subtree sizes, parents, per-tag rank lists) are not counted. *)
let size_bytes t = 12 * Array.length t.pre

(* --- persistence --------------------------------------------------- *)

let magic = "flix-ppo-v1"

let serialize t =
  let module W = Fx_util.Codec.Writer in
  let w = W.create ~magic in
  W.int w (Array.length t.pre);
  let post = Array.init (Array.length t.pre) (post t) in
  List.iter (W.int_array w) [ t.pre; post; t.depth; t.parent; t.order; t.subtree ];
  W.contents w

let deserialize (dg : Path_index.data_graph) data =
  let module R = Fx_util.Codec.Reader in
  let r = R.create ~magic data in
  let n = R.int r in
  if n <> Digraph.n_nodes dg.graph then
    raise (Fx_util.Codec.Corrupt "node count does not match the data graph");
  let arr name =
    let a = R.int_array r in
    if Array.length a <> n then
      raise (Fx_util.Codec.Corrupt ("bad length for " ^ name));
    a
  in
  let pre = arr "pre" in
  let stored_post = arr "post" in
  let depth = arr "depth" in
  let parent = arr "parent" in
  let order = arr "order" in
  let subtree = arr "subtree" in
  R.expect_end r;
  Array.iteri
    (fun rank v ->
      if v < 0 || v >= n || pre.(v) <> rank then
        raise (Fx_util.Codec.Corrupt "order table is not the preorder inverse"))
    order;
  let t = { dg; pre; depth; parent; order; subtree; by_tag = rank_tags ~prev:[||] dg order ~from:0 } in
  Array.iteri
    (fun v p ->
      if p <> post t v then
        raise (Fx_util.Codec.Corrupt "post table disagrees with pre, depth and subtree"))
    stored_post;
  t

let wrap ~build_ns (t : t) =
  let n = Array.length t.pre in
  {
    Path_index.name = "PPO";
    n_nodes = n;
    reachable = reachable t;
    distance = distance t;
    descendants_by_tag = descendants_by_tag t;
    ancestors_by_tag = ancestors_by_tag t;
    restricted_descendants = restricted_descendants t;
    restricted_ancestors = restricted_ancestors t;
    stats = { strategy = "PPO"; build_ns; entries = n; size_bytes = size_bytes t };
  }

let instance_of t = wrap ~build_ns:0L t

let instance dg =
  let (t : t), build_ns = Fx_util.Stopwatch.time_ns (fun () -> build dg) in
  wrap ~build_ns t
