module Lru = Fx_util.Lru
module P = Fx_server.Protocol

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

type key = { start_tag : string; target_tag : string; k : int; max_dist : int option }

type stats = { entries : int; hits : int; misses : int; epoch : int }

(* Every resident entry belongs to the current [epoch]: [invalidate]
   bumps it and clears the LRU under one lock, and [store] drops a
   merge computed under an older epoch, so a slow in-flight merge
   cannot resurrect pre-invalidation answers. *)
type t = { m : Mutex.t; lru : (key, P.item list) Lru.t; mutable epoch : int }

let create ~capacity () = { m = Mutex.create (); lru = Lru.create ~capacity (); epoch = 0 }
let epoch t = with_lock t.m (fun () -> t.epoch)

let find t ~start_tag ~target_tag ~k ~max_dist =
  with_lock t.m (fun () -> Lru.find t.lru { start_tag; target_tag; k; max_dist })

let store t ~epoch ~start_tag ~target_tag ~k ~max_dist items =
  with_lock t.m (fun () ->
      if epoch = t.epoch then Lru.add t.lru { start_tag; target_tag; k; max_dist } items)

let invalidate t =
  with_lock t.m (fun () ->
      t.epoch <- t.epoch + 1;
      Lru.clear t.lru)

(* Scoped invalidation: only entries whose start or target tag the delta
   touched can have changed, so only those are dropped — no epoch bump,
   surviving keys stay reachable, and the hit/miss counters keep
   counting (they are the evidence the warm entries kept serving). *)
let invalidate_tags t tags =
  with_lock t.m (fun () ->
      let doomed = ref [] in
      Lru.iter t.lru (fun key _ ->
          if
            List.exists (String.equal key.start_tag) tags
            || List.exists (String.equal key.target_tag) tags
          then doomed := key :: !doomed);
      List.iter (Lru.remove t.lru) !doomed)

let stats t =
  with_lock t.m (fun () ->
      {
        entries = Lru.length t.lru;
        hits = Lru.hits t.lru;
        misses = Lru.misses t.lru;
        epoch = t.epoch;
      })
