module Protocol = Fx_server.Protocol
module Client = Fx_server.Server_client
module Stopwatch = Fx_util.Stopwatch

type t = {
  id : int;
  host : string;  (* as given, for [address] *)
  ip : string;  (* [host] resolved once, at create *)
  port : int;
  m : Mutex.t;
  mutable idle : Client.t list;
  mutable closed : bool;
  errors : int Atomic.t;
  (* One rpc per wire attempt; one sub per sub-request it carried. The
     spread between them is the batching win the coordinator exports as
     flix_shard_probe_{rpcs,subs}_total. *)
  rpcs : int Atomic.t;
  subs : int Atomic.t;
  batch_sizes : Fx_server.Metrics.Histogram.t;  (* one sample per BATCH round trip *)
}

(* Extra attempts after a transport failure. *)
let retries = 2

(* The first retry delay, doubling per attempt. *)
let backoff_ms = 25.0

(* Grace added to the deadline budget before a read times out. *)
let recv_slack_s = 0.25

(* Sub-requests per BATCH round trip. It stays below the shard
   server's own cap ([max_batch], 1024 by default), which would reject
   an outsized batch whole; a larger wave is split instead. *)
let max_batch = 512

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The first IPv4 address of [host], numeric: connections open on
   PF_INET sockets. *)
let resolve host port =
  let hints = [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] in
  match Unix.getaddrinfo host (string_of_int port) hints with
  | { Unix.ai_addr = Unix.ADDR_INET (addr, _); _ } :: _ -> Unix.string_of_inet_addr addr
  | _ -> invalid_arg (Printf.sprintf "Shard_client.create: cannot resolve host %S" host)

let create ~id ~host ~port ~batch_sizes () =
  {
    id;
    host;
    ip = resolve host port;
    port;
    m = Mutex.create ();
    idle = [];
    closed = false;
    errors = Atomic.make 0;
    rpcs = Atomic.make 0;
    subs = Atomic.make 0;
    batch_sizes;
  }

let id t = t.id
let address t = Printf.sprintf "%s:%d" t.host t.port
let errors_total t = Atomic.get t.errors
let rpcs_total t = Atomic.get t.rpcs
let subs_total t = Atomic.get t.subs

let borrow t =
  match
    with_lock t.m (fun () ->
        match t.idle with
        | c :: rest ->
            t.idle <- rest;
            Some c
        | [] -> None)
  with
  | Some c -> Ok c
  | None -> (
      (* Any connect failure is a transport failure: the call retries
         and the coordinator degrades the answer, never fails it. *)
      match Client.connect ~host:t.ip ~port:t.port () with
      | c -> Ok c
      | exception Unix.Unix_error (err, _, _) ->
          Error (Printf.sprintf "connect %s: %s" (address t) (Unix.error_message err))
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception e -> Error (Printf.sprintf "connect %s: %s" (address t) (Printexc.to_string e)))

let give_back t c =
  let keep =
    with_lock t.m (fun () ->
        if t.closed then false
        else begin
          t.idle <- c :: t.idle;
          true
        end)
  in
  if not keep then Client.close c

(* One exchange on one connection. A transport failure (including a
   tripped receive timeout) poisons the connection — a late response
   would desynchronize the framing — so it is closed, never pooled. *)
let exchange t ~deadline_ms f =
  match borrow t with
  | Error _ as e -> e
  | Ok conn ->
      Client.set_recv_timeout conn
        (Option.map (fun ms -> (float_of_int ms /. 1000.0) +. recv_slack_s) deadline_ms);
      let result = f conn in
      (match result with
      | Ok _ -> give_back t conn
      | Error _ -> Client.close conn);
      result

(* The one retry loop: [attempt ~deadline_ms] is one wire attempt given
   what is left of the budget. A failed attempt counts one error and is
   retried after a doubling backoff, at most [retries] times and never
   past the deadline. *)
let with_retries ?deadline_ms t attempt =
  let sw = Stopwatch.start () in
  let rec go attempt_no backoff =
    let left = Option.map (fun ms -> ms - int_of_float (Stopwatch.elapsed_ms sw)) deadline_ms in
    match left with
    | Some left when left <= 0 -> Error "deadline exhausted before shard answered"
    | deadline_ms -> (
        match attempt ~deadline_ms with
        | Ok _ as ok -> ok
        | Error e ->
            Atomic.incr t.errors;
            if attempt_no >= retries then Error e
            else begin
              Thread.delay (backoff /. 1000.0);
              go (attempt_no + 1) (backoff *. 2.0)
            end)
  in
  go 0 backoff_ms

let call ?deadline_ms t req =
  with_retries ?deadline_ms t (fun ~deadline_ms ->
      Atomic.incr t.rpcs;
      Atomic.incr t.subs;
      exchange t ~deadline_ms (fun conn -> Client.request ?deadline_ms conn req))

(* One batch of sub-requests in one pipelined round trip. Retries are
   per-batch but never re-send an answered sub-request: each retry
   re-batches only the still-unanswered slots, so a transport failure
   mid-pipeline costs one fresh (smaller) batch, not duplicated work —
   and the shard never sees the same probe answered twice. *)
let call_many ?deadline_ms t reqs =
  let n = Array.length reqs in
  let out = Array.make n (Error "unanswered batch sub-request") in
  let answered = Array.make n false in
  let pending () =
    let idx = ref [] in
    for i = n - 1 downto 0 do
      if not answered.(i) then idx := i :: !idx
    done;
    Array.of_list !idx
  in
  let one_rpc ~deadline_ms idx =
    Atomic.incr t.rpcs;
    ignore (Atomic.fetch_and_add t.subs (Array.length idx));
    Fx_server.Metrics.Histogram.observe t.batch_sizes (float_of_int (Array.length idx));
    exchange t ~deadline_ms (fun conn ->
        Client.request_batch ?deadline_ms conn
          (Array.map (fun i -> reqs.(i)) idx)
          ~on_response:(fun j resp ->
            let i = idx.(j) in
            out.(i) <- Ok resp;
            answered.(i) <- true))
  in
  (* A wave can outgrow the server's [max_batch] cap: split it into
     capped chunks, each its own round trip. Answers recorded by earlier
     chunks survive a later chunk's failure — the retry re-batches only
     what is still unanswered. *)
  let attempt_batch ~deadline_ms =
    let idx = pending () in
    let len = Array.length idx in
    let rec chunks off =
      if off >= len then Ok ()
      else
        let m = min max_batch (len - off) in
        match one_rpc ~deadline_ms (Array.sub idx off m) with
        | Ok () -> chunks (off + m)
        | Error _ as e -> e
    in
    chunks 0
  in
  if n > 0 then begin
    match with_retries ?deadline_ms t attempt_batch with
    | Ok () -> ()
    | Error msg -> Array.iteri (fun i a -> if not a then out.(i) <- Error msg) answered
  end;
  out

let close t =
  let conns =
    with_lock t.m (fun () ->
        t.closed <- true;
        let cs = t.idle in
        t.idle <- [];
        cs)
  in
  List.iter Client.close conns
