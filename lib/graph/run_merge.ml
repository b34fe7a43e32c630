module PQ = Priority_queue
module Int_tbl = Hashtbl.Make (Int)

let bits n =
  let rec go b = if (n - 1) asr b > 0 then go (b + 1) else b in
  go 0

let pack ~bits d v = (d lsl bits) lor v
let dist ~bits key = key lsr bits
let node ~bits key = key land ((1 lsl bits) - 1)

type ('c, 'a) t = {
  bits : int;
  exclude : int;
  before_pop : ('c, 'a) t -> unit;
  on_pop : unit -> unit;
  emit : 'c -> int -> int -> 'a;
  step : 'c -> int;
  heap : 'c PQ.t;
  seen : unit Int_tbl.t;  (* nodes emitted *)
}

let create ~bits ?(exclude = -1) ?(before_pop = ignore) ?(on_pop = ignore) ~emit step =
  { bits; exclude; before_pop; on_pop; emit; step; heap = PQ.create (); seen = Int_tbl.create 16 }

let add m c =
  let key = m.step c in
  if key >= 0 then PQ.insert m.heap key c

let front m = if PQ.is_empty m.heap then max_int else dist ~bits:m.bits (PQ.min_prio m.heap)

(* A node's first pop is its least key; later pops of it are dropped. *)
let rec next m =
  m.before_pop m;
  if PQ.is_empty m.heap then None
  else begin
    let key = PQ.min_prio m.heap in
    let c = PQ.pop m.heap in
    m.on_pop ();
    add m c;
    let v = node ~bits:m.bits key in
    if v = m.exclude || Int_tbl.mem m.seen v then next m
    else begin
      Int_tbl.add m.seen v ();
      Some (m.emit c v (dist ~bits:m.bits key))
    end
  end
