(* Header page layout: magic "FXPG1\n", the page size as decimal + '\n',
   then "root " + the root as decimal + '\n' when the file has one; rest
   zero. Data pages follow, addressed from 0.

   Concurrency: the pool is striped. A page belongs to stripe
   [page mod n_stripes]; each stripe owns its own mutex, LRU segment,
   statistics counters, and a private file descriptor (a separate
   [Unix.openfile], NOT [Unix.dup] — dup'd descriptors share one file
   offset, which would let two stripes race each other's lseek+read
   pairs). No mutex is ever held across a [Unix] syscall: positioned
   reads run under a per-stripe condition-variable turn ([gate.busy]),
   and a page whose miss fill is in flight is latched in its slot
   ([loading]) so the read for page A never blocks a pool hit on page
   B of the same stripe. Callers only ever receive fresh [Bytes]
   copies, never a pool slot, so no page memory is shared outside a
   critical section. *)

let header_magic = "FXPG1\n"

(* Bytes read to parse a header: its text always fits, because a page
   is at least this large. *)
let header_text_max = 64

(* Every page fetched from disk is one a [read] missed, so
   [logical_reads - physical_reads] is the pool hit count. *)
type stats = { logical_reads : int; physical_reads : int }

type stripe_stats = {
  stripe_index : int;
  resident_pages : int;
  capacity_pages : int;
  stripe_logical_reads : int;
  stripe_physical_reads : int;
  lock_acquisitions : int;
  lock_contended : int;
}

(* [loading]: the slot was claimed on a pool miss and its bytes are
   still being read; everyone else parks on the stripe condition. *)
type slot = { data : Bytes.t; mutable loading : bool }

(* A mutex/condvar pair with a [busy] turn flag. The mutex protects
   only in-memory state; [busy] serializes the owning resource (a
   stripe's fd) across the I/O itself, which happens with the mutex
   released. The atomics feed the per-stripe contention metrics
   without needing any lock. *)
type gate = {
  glock : Mutex.t;
  gcond : Condition.t;
  mutable busy : bool;
  acquired : int Atomic.t;
  contended : int Atomic.t;
}

type stripe = {
  index : int;
  fd : Unix.file_descr;
  gate : gate; (* slot table, counters *)
  io : gate; (* busy = this stripe's fd is mid lseek+read *)
  pool : (int, slot) Fx_util.Lru.t;
  capacity : int;
  mutable logical_reads : int;
  mutable physical_reads : int;
}

type t = {
  page_size : int;
  stripes : stripe array;
  n_pages : int;
  root : int option;
  closed : bool Atomic.t;
}

let with_lock (g : gate) f =
  if not (Mutex.try_lock g.glock) then begin
    Atomic.incr g.contended;
    Mutex.lock g.glock
  end;
  Atomic.incr g.acquired;
  Fun.protect ~finally:(fun () -> Mutex.unlock g.glock) f

let make_gate () =
  {
    glock = Mutex.create ();
    gcond = Condition.create ();
    busy = false;
    acquired = Atomic.make 0;
    contended = Atomic.make 0;
  }

let acquire_turn (g : gate) =
  with_lock g (fun () ->
      while g.busy do
        Condition.wait g.gcond g.glock
      done;
      g.busy <- true)

let release_turn (g : gate) =
  with_lock g (fun () ->
      g.busy <- false;
      Condition.broadcast g.gcond)

let with_turn g f =
  acquire_turn g;
  Fun.protect ~finally:(fun () -> release_turn g) f

(* --- positioned reads -------------------------------------------------- *)

(* Never called with a mutex held: callers hold the fd's I/O turn
   instead, which makes the lseek + read pair atomic with respect to
   the other users of that descriptor. EINTR is retried — a signal
   delivered to a worker domain mid-transfer must not abort the
   request (read returns the partial count when bytes moved, so a
   retry after EINTR never re-reads or skips data). *)
let rec eintr_read fd buf pos len =
  try Unix.read fd buf pos len
  with Unix.Unix_error (Unix.EINTR, _, _) -> eintr_read fd buf pos len

let really_pread fd buf off =
  let len = Bytes.length buf in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let rec go pos =
    if pos < len then begin
      let k = eintr_read fd buf pos (len - pos) in
      if k = 0 then invalid_arg "Pager: short read (truncated file)";
      go (pos + k)
    end
  in
  go 0

(* --- the header -------------------------------------------------------- *)

let header ~page_size ~root =
  if page_size < header_text_max then invalid_arg "Pager.header: page_size < 64";
  let text =
    header_magic ^ string_of_int page_size ^ "\n"
    ^ match root with None -> "" | Some r -> Printf.sprintf "root %d\n" r
  in
  let page = Bytes.make page_size '\000' in
  Bytes.blit_string text 0 page 0 (String.length text);
  page

(* The page size and root of a header's text (its first bytes). *)
let parse_header text =
  let corrupt () = invalid_arg "Pager.open_: corrupt header" in
  let m = String.length header_magic in
  if String.length text < m || String.sub text 0 m <> header_magic then
    invalid_arg "Pager.open_: bad header magic";
  match String.split_on_char '\n' (String.sub text m (String.length text - m)) with
  | size :: rest ->
      let page_size =
        match int_of_string_opt size with
        | Some ps when ps >= header_text_max -> ps
        | _ -> corrupt ()
      in
      let root =
        match rest with
        | line :: _ when String.starts_with ~prefix:"root " line -> (
            match int_of_string_opt (String.sub line 5 (String.length line - 5)) with
            | Some r when r >= 0 -> Some r
            | _ -> corrupt ())
        | _ -> None
      in
      (page_size, root)
  | [] -> corrupt ()

(* --- stripe machinery -------------------------------------------------- *)

let check_open t = if Atomic.get t.closed then invalid_arg "Pager: already closed"
let file_offset t page = (page + 1) * t.page_size
let stripe_of t page = t.stripes.(page mod Array.length t.stripes)

(* Drop least recently used pages until [s] is back within capacity.
   Pages are clean, so this runs inside the critical section that
   pushed the stripe over. A tail that is still loading is left alone
   — bounded overshoot, trimmed by the access that finds it ready. *)
let rec trim s =
  if Fx_util.Lru.length s.pool > s.capacity then
    match Fx_util.Lru.peek_lru s.pool with
    | Some (page, slot) when not slot.loading ->
        Fx_util.Lru.remove s.pool page;
        trim s
    | Some _ | None -> ()

(* Fill a freshly claimed [loading] slot from disk. Runs without the
   stripe gate; waiters park on the stripe condition until the slot
   goes ready. On failure the claim is withdrawn so a waiter retries
   the load itself. *)
let load_slot t s page slot =
  match with_turn s.io (fun () -> really_pread s.fd slot.data (file_offset t page)) with
  | () ->
      with_lock s.gate (fun () ->
          slot.loading <- false;
          s.physical_reads <- s.physical_reads + 1;
          Condition.broadcast s.gate.gcond)
  | exception e ->
      with_lock s.gate (fun () ->
          Fx_util.Lru.remove s.pool page;
          slot.loading <- false;
          Condition.broadcast s.gate.gcond);
      raise e

(* Copy [len] bytes at [offset] out of the fully loaded slot for
   [page], claiming and loading it on a miss. The hit path costs
   exactly one gate acquisition. *)
let rec read_page t s page offset len =
  let action =
    with_lock s.gate (fun () ->
        match Fx_util.Lru.find s.pool page with
        | Some slot when slot.loading ->
            Condition.wait s.gate.gcond s.gate.glock;
            `Retry
        | Some slot ->
            s.logical_reads <- s.logical_reads + 1;
            trim s;
            `Done (Bytes.sub slot.data offset len)
        | None ->
            let slot = { data = Bytes.create t.page_size; loading = true } in
            Fx_util.Lru.set s.pool page slot;
            trim s;
            `Load slot)
  in
  match action with
  | `Done b -> b
  | `Retry -> read_page t s page offset len
  | `Load slot ->
      load_slot t s page slot;
      read_page t s page offset len

(* --- lifecycle --------------------------------------------------------- *)

let open_ ?(pool_pages = 256) ?(stripes = 8) path =
  if pool_pages < 1 then invalid_arg "Pager.open_: pool_pages < 1";
  if stripes < 1 || stripes > 64 then invalid_arg "Pager.open_: stripes out of range";
  let opened = ref [] in
  let ok = ref false in
  (* Every open descriptor dies on any failure below. *)
  Fun.protect
    ~finally:(fun () ->
      if not !ok then
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !opened)
    (fun () ->
      let open_fd () =
        (* A private descriptor per stripe: separate open file
           descriptions mean independent file offsets, so stripes
           never race each other's lseek+read pairs. *)
        let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
        opened := fd :: !opened;
        fd
      in
      let fd0 = open_fd () in
      let file_len = (Unix.fstat fd0).Unix.st_size in
      let text = Bytes.create (min file_len header_text_max) in
      really_pread fd0 text 0;
      let page_size, root = parse_header (Bytes.to_string text) in
      if file_len < page_size || file_len mod page_size <> 0 then
        invalid_arg
          (Printf.sprintf "Pager.open_: file size is not a multiple of the page size %d"
             page_size);
      let capacity = max 1 (pool_pages / stripes) in
      let stripe_arr =
        Array.init stripes (fun i ->
            {
              index = i;
              fd = (if i = 0 then fd0 else open_fd ());
              gate = make_gate ();
              io = make_gate ();
              pool = Fx_util.Lru.create ~capacity ();
              capacity;
              logical_reads = 0;
              physical_reads = 0;
            })
      in
      ok := true;
      {
        page_size;
        stripes = stripe_arr;
        n_pages = (file_len / page_size) - 1;
        root;
        closed = Atomic.make false;
      })

(* --- public API -------------------------------------------------------- *)

let page_size t = t.page_size
let n_pages t = t.n_pages
let root t = t.root

let read t ~page ~offset ~len =
  check_open t;
  if offset < 0 || len < 0 || offset > t.page_size || len > t.page_size - offset then
    invalid_arg "Pager.read: out of page bounds";
  if page < 0 || page >= t.n_pages then invalid_arg "Pager: page out of range";
  read_page t (stripe_of t page) page offset len

let close t =
  if Atomic.compare_and_set t.closed false true then
    Array.iter (fun s -> Unix.close s.fd) t.stripes

let stats t =
  let logical = ref 0 and physical = ref 0 in
  Array.iter
    (fun s ->
      with_lock s.gate (fun () ->
          logical := !logical + s.logical_reads;
          physical := !physical + s.physical_reads))
    t.stripes;
  { logical_reads = !logical; physical_reads = !physical }

let reset_stats t =
  Array.iter
    (fun s ->
      with_lock s.gate (fun () ->
          s.logical_reads <- 0;
          s.physical_reads <- 0);
      Atomic.set s.gate.acquired 0;
      Atomic.set s.gate.contended 0;
      Atomic.set s.io.acquired 0;
      Atomic.set s.io.contended 0)
    t.stripes

let stripe_stats t =
  Array.to_list
    (Array.map
       (fun s ->
         with_lock s.gate (fun () ->
             {
               stripe_index = s.index;
               resident_pages = Fx_util.Lru.length s.pool;
               capacity_pages = s.capacity;
               stripe_logical_reads = s.logical_reads;
               stripe_physical_reads = s.physical_reads;
               lock_acquisitions = Atomic.get s.gate.acquired + Atomic.get s.io.acquired;
               lock_contended = Atomic.get s.gate.contended + Atomic.get s.io.contended;
             }))
       t.stripes)

let drop_pool t =
  check_open t;
  Array.iter (fun s -> with_lock s.gate (fun () -> Fx_util.Lru.clear s.pool)) t.stripes
