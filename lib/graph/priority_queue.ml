(* Payloads live in a plain ['a array]: an OCaml array needs a value of
   its element type to be created, so [data] stays empty until the first
   insert and is then filled with that payload. Vacated slots are not
   cleared; a popped payload stays reachable from the heap until a later
   insert overwrites its slot or the heap itself is dropped. *)
type 'a t = {
  mutable prio : int array;
  mutable data : 'a array;
  mutable size : int;
}

let create () = { prio = [||]; data = [||]; size = 0 }
let is_empty q = q.size = 0
let length q = q.size

let grow q fill =
  let cap = Int.max 16 (2 * Array.length q.prio) in
  let prio = Array.make cap 0 in
  let data = Array.make cap fill in
  Array.blit q.prio 0 prio 0 q.size;
  Array.blit q.data 0 data 0 q.size;
  q.prio <- prio;
  q.data <- data

(* Hole-based sifts: the moving entry is written once, at its final
   slot. They visit and compare the same slots as swapping the entry one
   level at a time would (strict [<]/[>], left child first), so every
   entry ends where the swapping heap puts it and ties break the same. *)
let sift_up q i p v =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if q.prio.(parent) > p then begin
      q.prio.(!i) <- q.prio.(parent);
      q.data.(!i) <- q.data.(parent);
      i := parent
    end
    else continue := false
  done;
  q.prio.(!i) <- p;
  q.data.(!i) <- v

let sift_down q i p v =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let smallest = ref !i and sp = ref p in
    if l < q.size && q.prio.(l) < !sp then begin
      smallest := l;
      sp := q.prio.(l)
    end;
    if r < q.size && q.prio.(r) < !sp then smallest := r;
    if !smallest = !i then continue := false
    else begin
      q.prio.(!i) <- q.prio.(!smallest);
      q.data.(!i) <- q.data.(!smallest);
      i := !smallest
    end
  done;
  q.prio.(!i) <- p;
  q.data.(!i) <- v

let insert q prio v =
  if q.size = Array.length q.prio then grow q v;
  q.size <- q.size + 1;
  sift_up q (q.size - 1) prio v

let min_prio q =
  if q.size = 0 then invalid_arg "Priority_queue.min_prio: empty";
  q.prio.(0)

let pop q =
  if q.size = 0 then invalid_arg "Priority_queue.pop: empty";
  let v = q.data.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then sift_down q 0 q.prio.(q.size) q.data.(q.size);
  v

let clear q = q.size <- 0
