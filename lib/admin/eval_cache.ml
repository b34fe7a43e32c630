(* Server-side cache over clean EVALUATE answers, with invalidation
   scoped to the tag pairs touched by an ingest delta instead of a
   whole-epoch flush. All state sits behind one mutex (never held across
   anything blocking); hit/miss counters come from the LRU itself.

   Every resident entry belongs to the current epoch: [swap] drops what
   the delta touches and moves the survivors along with the epoch, and
   [store] refuses an answer computed under any other epoch. So a
   request pinned to a retired snapshot can never plant its answer in
   the new epoch's cache. *)

module Lru = Fx_util.Lru

type key = { start_tag : string; target_tag : string; k : int; max_dist : int }

type 'v t = {
  m : Mutex.t;
  lru : (key, 'v) Lru.t;
  enabled : bool;
  mutable epoch : int;
  mutable invalidated : int;
}

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let create ~capacity ~epoch =
  {
    m = Mutex.create ();
    lru = Lru.create ~capacity:(max 1 capacity) ();
    enabled = capacity > 0;
    epoch;
    invalidated = 0;
  }

let find t ~epoch key =
  with_lock t.m (fun () -> if epoch = t.epoch then Lru.find t.lru key else None)

let store t ~epoch key v =
  with_lock t.m (fun () -> if t.enabled && epoch = t.epoch then Lru.add t.lru key v)

(* An entry is touched when its start or target tag is in the delta's
   tag set. *)
let touches tags key =
  List.exists (fun tag -> String.equal tag key.start_tag || String.equal tag key.target_tag) tags

let swap t ~epoch (scope : Delta.scope) =
  with_lock t.m (fun () ->
      (* [Lru.clear] would also reset the hit/miss counters, which must
         survive a swap (they are the evidence that scoped invalidation
         kept unaffected entries warm) — drop entries one by one. *)
      let doomed = ref [] in
      Lru.iter t.lru (fun key _ ->
          match scope with
          | Delta.All -> doomed := key :: !doomed
          | Delta.Tags tags -> if touches tags key then doomed := key :: !doomed);
      List.iter (Lru.remove t.lru) !doomed;
      t.invalidated <- t.invalidated + List.length !doomed;
      t.epoch <- epoch)

let hits t = with_lock t.m (fun () -> Lru.hits t.lru)
let misses t = with_lock t.m (fun () -> Lru.misses t.lru)
let length t = with_lock t.m (fun () -> Lru.length t.lru)
let invalidated t = with_lock t.m (fun () -> t.invalidated)
