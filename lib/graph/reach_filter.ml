module Rng = Fx_util.Rng

let k = 3

type t = {
  group_of : int array;  (* node -> group *)
  comp : int array;  (* group -> component id, reverse topological *)
  n_components : int;
  lo : int array;  (* label i of component c at [c * k + i] *)
  hi : int array;
  build_ns : int64;
}

(* One GRAIL labelling: an iterative DFS from the DAG's sources in
   shuffled order, children in shuffled order. [hi] is the post-order
   rank, [lo] the smallest rank below (and including) the node. Both
   land at [c * k + label] of the shared arrays. *)
let label dag rng ~lo ~hi label_idx =
  let slot c = (c * k) + label_idx in
  let lower c x = lo.(slot c) <- Int.min lo.(slot c) x in
  let visited = Bytes.make (Digraph.n_nodes dag) '\000' in
  let rank = ref 0 in
  let stack = Stack.create () in
  let push v =
    Bytes.set visited v '\001';
    let children = Digraph.succ dag v in
    Rng.shuffle rng children;
    lo.(slot v) <- max_int;
    Stack.push (v, children, ref 0) stack
  in
  let sources = Array.init (Digraph.n_nodes dag) Fun.id in
  Rng.shuffle rng sources;
  Array.iter
    (fun s ->
      if Digraph.in_degree dag s = 0 then begin
        push s;
        while not (Stack.is_empty stack) do
          let v, children, next = Stack.top stack in
          if !next < Array.length children then begin
            let w = children.(!next) in
            incr next;
            (* In a DAG a visited child is finished: its label is final. *)
            if Bytes.get visited w = '\000' then push w else lower v lo.(slot w)
          end
          else begin
            ignore (Stack.pop stack);
            incr rank;
            hi.(slot v) <- !rank;
            lower v !rank;
            if not (Stack.is_empty stack) then begin
              let parent, _, _ = Stack.top stack in
              lower parent lo.(slot v)
            end
          end
        done
      end)
    sources

let build ~n_groups ~group_of edges =
  let sw = Fx_util.Stopwatch.start () in
  let group_edges =
    List.filter_map
      (fun (u, v) ->
        let gu = group_of.(u) and gv = group_of.(v) in
        if gu = gv then None else Some (gu, gv))
      edges
  in
  let scc, dag = Scc.condensation (Digraph.of_edges ~n:n_groups group_edges) in
  let nc = scc.Scc.n_components in
  let lo = Array.make (nc * k) 0 and hi = Array.make (nc * k) 0 in
  let rng = Rng.create 0x6a09e667 in
  for i = 0 to k - 1 do
    label dag rng ~lo ~hi i
  done;
  {
    group_of;
    comp = scc.Scc.component;
    n_components = nc;
    lo;
    hi;
    build_ns = Fx_util.Stopwatch.elapsed_ns sw;
  }

let may_reach t a b =
  let ca = t.comp.(t.group_of.(a)) and cb = t.comp.(t.group_of.(b)) in
  (* Reachability implies containment in every label. *)
  let rec contained i =
    i = k
    || (let pa = (ca * k) + i and pb = (cb * k) + i in
        t.lo.(pa) <= t.lo.(pb) && t.hi.(pb) <= t.hi.(pa) && contained (i + 1))
  in
  ca = cb || (ca > cb && contained 0)

let n_groups t = Array.length t.comp
let n_components t = t.n_components
let build_ms t = Int64.to_float t.build_ns /. 1e6
