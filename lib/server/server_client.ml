type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type 'a reply = Value of 'a | Busy | Server_error of string

let set_recv_timeout t seconds =
  let v = match seconds with None -> 0.0 | Some s -> Float.max s 0.000001 in
  try Unix.setsockopt_float t.fd Unix.SO_RCVTIMEO v
  with Unix.Unix_error _ | Invalid_argument _ ->
    (* Not supported on this platform: the client degrades to blocking
       reads, exactly the pre-timeout behaviour. *)
    ()

let connect ?(host = "127.0.0.1") ?recv_timeout ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let t = { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd } in
  (match recv_timeout with None -> () | Some s -> set_recv_timeout t (Some s));
  t

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* A tripped SO_RCVTIMEO surfaces from the buffered channel as
   Sys_error/Unix_error (EAGAIN), which [read_line] folds into [None] —
   so a hung server yields a clean "connection closed mid-response"
   error instead of wedging the caller. The connection is unusable
   afterwards (the response may still arrive later and desynchronize
   the framing); callers must [close] and reconnect. *)
let read_line_of t () =
  match input_line t.ic with
  | line -> Some line
  | exception (End_of_file | Sys_error _ | Sys_blocked_io | Unix.Unix_error _) -> None

let send t ?deadline_ms req =
  match
    output_string t.oc (Protocol.envelope_line ?deadline_ms req);
    output_char t.oc '\n';
    flush t.oc
  with
  | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection lost on send"
  | () -> Ok ()

let request ?deadline_ms t req =
  match send t ?deadline_ms req with
  | Error _ as e -> e
  | Ok () -> Protocol.read_response (read_line_of t)

(* Pipelined batch: one BATCH header plus every sub-request line goes
   out in a single buffered write + flush, then the SUB-tagged answers
   are read back by SUB index. [on_response] sees each answer as
   soon as it is parsed, so a transport failure mid-batch still leaves
   the caller with the answered prefix. *)
let request_batch ?deadline_ms t reqs ~on_response =
  let n = Array.length reqs in
  if n = 0 then Ok ()
  else
    match
      output_string t.oc (Protocol.batch_line ?deadline_ms n);
      output_char t.oc '\n';
      Array.iter
        (fun req ->
          output_string t.oc (Protocol.request_line req);
          output_char t.oc '\n')
        reqs;
      flush t.oc
    with
    | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection lost on send"
    | () -> Protocol.read_batch_responses (read_line_of t) ~n ~on_response

let request_many ?deadline_ms t reqs =
  let out = Array.make (Array.length reqs) (Protocol.Err "missing batch answer") in
  match request_batch ?deadline_ms t reqs ~on_response:(fun i resp -> out.(i) <- resp) with
  | Ok () -> Ok out
  | Error _ as e -> e

(* Collapse the transport/protocol/server error planes into the [reply]
   shape each typed accessor wants. *)
let typed t req extract =
  match request t req with
  | Error e -> Error e
  | Ok Protocol.Busy -> Ok Busy
  | Ok (Protocol.Err msg) -> Ok (Server_error msg)
  | Ok resp -> (
      match extract resp with
      | Some v -> Ok (Value v)
      | None -> Error "unexpected response type")

let ping t =
  match request t Protocol.Ping with Ok Protocol.Pong -> true | _ -> false

let sleep t ms =
  typed t (Protocol.Sleep ms) (function
    | Protocol.Ok_done -> Some true
    | Protocol.Items { items = []; timed_out = true; partial = _ } -> Some false
    | _ -> None)

let items_reply = function
  | Protocol.Items { items; timed_out; partial = _ } -> Some (items, timed_out)
  | _ -> None

let descendants t ~doc ?anchor ?tag ?max_dist ~k () =
  typed t (Protocol.Descendants { doc; anchor; tag; k; max_dist }) items_reply

let evaluate t ~start_tag ~target_tag ?max_dist ~k () =
  typed t (Protocol.Evaluate { start_tag; target_tag; k; max_dist }) items_reply

let connected t ?max_dist a b =
  typed t (Protocol.Connected { a; b; max_dist }) (function
    | Protocol.Dist d -> Some d
    | _ -> None)

let lines_reply = function Protocol.Lines l -> Some l | _ -> None
let stats t = typed t Protocol.Stats lines_reply
let metrics t = typed t Protocol.Metrics lines_reply

(* --- admin plane --------------------------------------------------- *)

let epoch_reply = function Protocol.Epoch e -> Some e | _ -> None
let epoch t = typed t Protocol.Epoch_query epoch_reply
let evict t names = typed t (Protocol.Evict names) epoch_reply
let reload t = typed t Protocol.Reload epoch_reply

(* The INGEST envelope is the one client-side frame the [request] escape
   hatch cannot express: header, then one DOC frame per document with
   its body split into lines, all in a single buffered write. *)
let ingest t docs =
  match docs with
  | [] -> Error "empty ingest"
  | docs -> (
      match
        output_string t.oc (Protocol.ingest_line (List.length docs));
        output_char t.oc '\n';
        List.iter
          (fun (name, body) ->
            let lines = String.split_on_char '\n' body in
            output_string t.oc (Protocol.doc_line ~name ~n_lines:(List.length lines));
            output_char t.oc '\n';
            List.iter
              (fun l ->
                output_string t.oc l;
                output_char t.oc '\n')
              lines)
          docs;
        flush t.oc
      with
      | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection lost on send"
      | () -> (
          match Protocol.read_response (read_line_of t) with
          | Error _ as e -> e
          | Ok Protocol.Busy -> Ok Busy
          | Ok (Protocol.Err msg) -> Ok (Server_error msg)
          | Ok (Protocol.Epoch e) -> Ok (Value e)
          | Ok _ -> Error "unexpected response type"))
