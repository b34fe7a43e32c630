type 'a t = {
  mutable items : 'a list;     (* reversed producer stack *)
  mutable out : 'a list;       (* consumer-ordered head *)
  mutable size : int;
  mutable closed : bool;
  capacity : int;
  lock : Mutex.t;
  nonempty : Condition.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Work_queue.create: capacity must be >= 1";
  {
    items = [];
    out = [];
    size = 0;
    closed = false;
    capacity;
    lock = Mutex.create ();
    nonempty = Condition.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || t.size >= t.capacity then false
      else begin
        t.items <- x :: t.items;
        t.size <- t.size + 1;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        match t.out with
        | x :: rest ->
            t.out <- rest;
            t.size <- t.size - 1;
            Some x
        | [] ->
            if t.items <> [] then begin
              t.out <- List.rev t.items;
              t.items <- [];
              wait ()
            end
            else if t.closed then None
            else begin
              Condition.wait t.nonempty t.lock;
              wait ()
            end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
