module Lru = Fx_util.Lru

type key = { start : int; tag : int option; max_dist : int }

type t = { pee : Pee.t; cache : (key, Pee.item list) Lru.t; max_results : int }

let create ?(capacity = 256) ?(max_results = 10_000) pee =
  { pee; cache = Lru.create ~capacity (); max_results }

let stream_of_list items =
  let rest = ref items in
  Result_stream.of_fn (fun () ->
      match !rest with
      | [] -> None
      | x :: tl ->
          rest := tl;
          Some x)

let descendants ?tag ?(max_dist = max_int) t ~start =
  let key = { start; tag; max_dist } in
  match Lru.find t.cache key with
  | Some items -> stream_of_list items
  | None ->
      (* Materialise lazily: only when the stream is first pulled does
         the evaluation run, and only a fully drained result list is
         worth caching (a truncated one is incomplete). *)
      let materialised =
        lazy
          (let items =
             Result_stream.to_list (Pee.descendants ?tag ~max_dist t.pee ~start)
           in
           if List.length items <= t.max_results then Lru.add t.cache key items;
           items)
      in
      let rest = ref None in
      Result_stream.of_fn (fun () ->
          let r = match !rest with Some r -> r | None -> ref (Lazy.force materialised) in
          rest := Some r;
          match !r with
          | [] -> None
          | x :: tl ->
              r := tl;
              Some x)

let invalidate t = Lru.clear t.cache

type cache_stats = { entries : int; hits : int; misses : int; hit_rate : float }

let stats t =
  let hits = Lru.hits t.cache and misses = Lru.misses t.cache in
  {
    entries = Lru.length t.cache;
    hits;
    misses;
    hit_rate =
      (if hits + misses = 0 then 0.0
       else float_of_int hits /. float_of_int (hits + misses));
  }
