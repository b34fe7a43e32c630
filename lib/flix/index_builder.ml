module Path_index = Fx_index.Path_index

module Ppo = Fx_index.Ppo

type impl = Ppo_tree of Ppo.t | Opaque

(* PPO forward: the staged rows; PPO backward: the tree and the set,
   walked per expansion; HOPI, TC and APEX: the index's staged lookup. *)
type links =
  | Rows of Ppo.link_rows
  | Chain of Ppo.t * Fx_graph.Bitset.t
  | Staged of (int -> (int * int) list)

type built = {
  meta : Meta_document.t;
  strategy : Strategy_selector.strategy;
  index : Path_index.instance;
  fallback : bool;
  impl : impl;
  out_links : links;
  in_links : links;
}

let iter_links links l f =
  match links with
  | Rows rows -> Ppo.iter_link_row rows l f
  | Chain (ppo, set) -> Ppo.iter_ancestors_in ppo set l f
  | Staged lookup ->
      let rec walk = function
        | (lv, dist) :: rest -> if f ~link:lv ~dist then walk rest
        | [] -> ()
      in
      walk (lookup l)

type t = {
  registry : Meta_document.registry;
  indexes : built array;
  build_ns : int64;
  reused : int;
  extended : int;
}

(* Structural digest of a meta document: equal digests mean the local
   index answers identically, so an old instance can be reused. The
   out/in link arrays are NOT part of the digest — they live on the meta
   document, not in the index — but the node set pins the global ids so
   the link sets L_i are recomputed by the registry anyway.

   FNV-1a-style fold over the node ids, tags, and edges: explicit and
   deterministic across runs, where Hashtbl.hash would sample the deep
   structure polymorphically (FL003) and truncate to 30 bits. *)
let fnv_basis = 0x3f29ce484222325
let fnv_prime = 0x100000001b3
let fnv_mix h x = (h lxor x) * fnv_prime

let digest (m : Meta_document.t) =
  let h = ref fnv_basis in
  let add x = h := fnv_mix !h x in
  add (Array.length m.Meta_document.nodes);
  Array.iter add m.Meta_document.nodes;
  Array.iter add m.Meta_document.tag;
  List.iter
    (fun (u, v) ->
      add u;
      add v)
    (Fx_graph.Digraph.edges m.Meta_document.graph);
  !h land max_int

let equal_structure (a : Meta_document.t) (b : Meta_document.t) =
  a.Meta_document.nodes = b.Meta_document.nodes
  && a.Meta_document.tag = b.Meta_document.tag
  && Fx_graph.Digraph.edges a.Meta_document.graph = Fx_graph.Digraph.edges b.Meta_document.graph

(* The link sets are staged here, once per meta document, so a query
   pays only for the link nodes it meets. A PPO meta document lays out
   its rows (or takes [rows], staged for the same tree and link set);
   the other strategies keep their staged lookups. *)
let stage ?rows ~meta ~strategy ~index ~fallback ~impl () =
  let out_links, in_links =
    match impl with
    | Ppo_tree ppo ->
        let rows =
          match rows with Some r -> r | None -> Ppo.link_rows ppo meta.Meta_document.link_nodes
        in
        (Rows rows, Chain (ppo, meta.Meta_document.in_link_nodes))
    | Opaque ->
        ( Staged (index.Path_index.restricted_descendants meta.Meta_document.link_nodes),
          Staged (index.Path_index.restricted_ancestors meta.Meta_document.in_link_nodes) )
  in
  { meta; strategy; index; fallback; impl; out_links; in_links }

let instantiate strategy dg =
  match (strategy : Strategy_selector.strategy) with
  | PPO -> Fx_index.Ppo.instance dg
  | HOPI { partition_size } -> Fx_index.Hopi.instance ~partition_size dg
  | APEX -> Fx_index.Apex.instance dg
  | TC -> Fx_index.Tc_index.instance dg

let build_one policy (m : Meta_document.t) =
  let dg = Meta_document.data_graph m in
  let requested = Strategy_selector.select policy m in
  match requested with
  | Strategy_selector.PPO ->
      (* Build the numbering directly so it can be handed to
         [Ppo.extend] on a later incremental rebuild. *)
      (match Ppo.build dg with
      | ppo ->
          stage ~meta:m ~strategy:requested ~index:(Ppo.instance_of ppo) ~fallback:false
            ~impl:(Ppo_tree ppo) ()
      | exception Ppo.Not_a_forest ->
          let strategy = Strategy_selector.HOPI { partition_size = 5000 } in
          stage ~meta:m ~strategy ~index:(instantiate strategy dg) ~fallback:true ~impl:Opaque ())
  | _ ->
      stage ~meta:m ~strategy:requested ~index:(instantiate requested dg) ~fallback:false
        ~impl:Opaque ()

let build ?(policy = Strategy_selector.default_auto) ?reuse ?(jobs = 1)
    (registry : Meta_document.registry) =
  let watch = Fx_util.Stopwatch.start () in
  (* The reuse pool is fully populated before any worker reads it. *)
  let pool : (int, built list) Hashtbl.t = Hashtbl.create 64 in
  (match reuse with
  | None -> ()
  | Some old ->
      Array.iter
        (fun (b : built) ->
          let d = digest b.meta in
          Hashtbl.replace pool d (b :: Option.value ~default:[] (Hashtbl.find_opt pool d)))
        old.indexes);
  let reused = Atomic.make 0 in
  let extended = Atomic.make 0 in
  (* Delta pool: old PPO numberings that may be extendable in place when
     a meta document grew by appended subtrees (the single-meta-document
     configurations: one big tree gaining new documents). *)
  let ppo_pool =
    match reuse with
    | None -> []
    | Some old ->
        Array.to_list old.indexes
        |> List.filter_map (fun (b : built) ->
               match b.impl with Ppo_tree ppo -> Some (b.meta, ppo) | Opaque -> None)
  in
  let int_array_prefix a b =
    Array.length a < Array.length b
    &&
    try
      Array.iteri (fun i x -> if x <> b.(i) then raise Exit) a;
      true
    with Exit -> false
  in
  let try_extend (m : Meta_document.t) =
    match Strategy_selector.select policy m with
    | Strategy_selector.PPO ->
        List.find_map
          (fun ((om : Meta_document.t), ppo) ->
            if
              int_array_prefix om.Meta_document.nodes m.Meta_document.nodes
              && int_array_prefix om.Meta_document.tag m.Meta_document.tag
            then
              match Ppo.extend ppo (Meta_document.data_graph m) with
              | Some ppo' ->
                  Atomic.incr extended;
                  Some
                    (stage ~meta:m ~strategy:Strategy_selector.PPO ~index:(Ppo.instance_of ppo')
                       ~fallback:false ~impl:(Ppo_tree ppo') ())
              | None -> None
            else None)
          ppo_pool
    | _ -> None
  in
  let build_or_reuse (m : Meta_document.t) =
    let candidates = Option.value ~default:[] (Hashtbl.find_opt pool (digest m)) in
    match List.find_opt (fun (b : built) -> equal_structure b.meta m) candidates with
    | Some b ->
        Atomic.incr reused;
        (* The structure matches but the link sets and the id may have
           changed: rebind the instance to the new meta document and
           stage its link sets afresh, except for rows staged for the
           same tree and an equal link set, which are shared. *)
        let rows =
          match b.out_links with
          | Rows r when Fx_graph.Bitset.equal b.meta.Meta_document.link_nodes m.Meta_document.link_nodes
            ->
              Some r
          | Rows _ | Chain _ | Staged _ -> None
        in
        stage ?rows ~meta:m ~strategy:b.strategy ~index:b.index ~fallback:b.fallback ~impl:b.impl ()
    | None -> (
        match try_extend m with Some b -> b | None -> build_one policy m)
  in
  (* Meta documents are independent, so building them is embarrassingly
     parallel; with [jobs > 1] a work-stealing counter hands them to
     OCaml 5 domains. Every slot is written by exactly one worker. *)
  let n = Array.length registry.metas in
  let results : built option array = Array.make n None in
  let cursor = Atomic.make 0 in
  let worker () =
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add cursor 1 in
      if i >= n then continue := false
      else results.(i) <- Some (build_or_reuse registry.metas.(i))
    done
  in
  if jobs <= 1 then worker ()
  else begin
    let helpers = List.init (min (jobs - 1) 15) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers
  end;
  let indexes =
    Array.map (function Some b -> b | None -> assert false) results
  in
  let t =
    {
      registry;
      indexes;
      build_ns = Fx_util.Stopwatch.elapsed_ns watch;
      reused = Atomic.get reused;
      extended = Atomic.get extended;
    }
  in
  Log.info (fun m ->
      m "built %d meta-document indexes (%d reused, %d extended in place) in %.1f ms"
        (Array.length indexes) t.reused t.extended
        (Int64.to_float t.build_ns /. 1e6));
  Array.iter
    (fun (b : built) ->
      if b.fallback then
        Log.warn (fun m ->
            m "meta document %d: requested strategy unusable, fell back to %s"
              b.meta.Meta_document.id
              (Strategy_selector.strategy_to_string b.strategy))
      else
        Log.debug (fun m ->
            m "meta document %d: %s over %d nodes (%d bytes)" b.meta.Meta_document.id
              (Strategy_selector.strategy_to_string b.strategy)
              (Meta_document.n_nodes b.meta)
              b.index.Path_index.stats.size_bytes))
    indexes;
  t

let reused_count t = t.reused
let extended_count t = t.extended

let total_size_bytes t =
  Array.fold_left (fun acc b -> acc + b.index.Path_index.stats.size_bytes) 0 t.indexes

let total_entries t =
  Array.fold_left (fun acc b -> acc + b.index.Path_index.stats.entries) 0 t.indexes

(* The staged PPO rows: (node, link) pairs and bytes. *)
let link_rows_size t =
  Array.fold_left
    (fun (pairs, bytes) b ->
      match b.out_links with
      | Rows r -> (pairs + Ppo.link_row_pairs r, bytes + Ppo.link_row_bytes r)
      | Chain _ | Staged _ -> (pairs, bytes))
    (0, 0) t.indexes

let strategy_histogram t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun b ->
      let key = Strategy_selector.strategy_to_string b.strategy in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    t.indexes;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let report t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%d meta documents, %d run-time links, %.2f MB of indexes (built in %.1f ms)\n"
       (Array.length t.indexes)
       (Meta_document.total_out_links t.registry)
       (float_of_int (total_size_bytes t) /. 1048576.0)
       (Int64.to_float t.build_ns /. 1e6));
  let pairs, bytes = link_rows_size t in
  Buffer.add_string buf
    (Printf.sprintf "link rows: %d pairs, %.2f MB\n" pairs (float_of_int bytes /. 1048576.0));
  List.iter
    (fun (s, n) -> Buffer.add_string buf (Printf.sprintf "  %-10s %d meta documents\n" s n))
    (strategy_histogram t);
  let fallbacks = Array.fold_left (fun a b -> if b.fallback then a + 1 else a) 0 t.indexes in
  if fallbacks > 0 then
    Buffer.add_string buf (Printf.sprintf "  (%d strategy fallbacks to HOPI)\n" fallbacks);
  Buffer.contents buf
