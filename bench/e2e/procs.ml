(* Child processes: the flix_serve servers a workload runs against.

   Each child writes stdout and stderr to its own log file; a server is
   ready once its log shows the "serving on HOST:PORT" line (servers
   bind port 0, so the port comes from there) and it answers PING. *)

type t = { pid : int; name : string; log : string; mutable exited : bool }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> In_channel.input_all ic)

let spawn ~exe ~args ~log ~name =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close out)
    (fun () ->
      let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close null)
        (fun () ->
          let pid = Unix.create_process exe (Array.of_list (exe :: args)) null out out in
          { pid; name; log; exited = false }))

(* Reap [t] if it has exited; true when it is gone. *)
let reaped t =
  if t.exited then true
  else
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ -> false
    | _, _ ->
        t.exited <- true;
        true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
        t.exited <- true;
        true

let log_tail t =
  let s = read_file t.log in
  let n = String.length s in
  String.trim (if n > 400 then String.sub s (n - 400) 400 else s)

let ping port =
  match Fx_server.Server_client.connect ~recv_timeout:5.0 ~port () with
  | exception Unix.Unix_error _ -> false
  | c -> Fun.protect ~finally:(fun () -> Fx_server.Server_client.close c) (fun () ->
             Fx_server.Server_client.ping c)

let serving_port log =
  let marker = "serving on " in
  let s = read_file log in
  let ml = String.length marker and len = String.length s in
  let rec find i =
    if i + ml > len then None
    else if String.sub s i ml = marker then
      let rec stop j = if j < len && s.[j] <> ' ' && s.[j] <> '\n' then stop (j + 1) else j in
      let addr = String.sub s (i + ml) (stop (i + ml) - i - ml) in
      match String.rindex_opt addr ':' with
      | Some c -> int_of_string_opt (String.sub addr (c + 1) (String.length addr - c - 1))
      | None -> None
    else find (i + 1)
  in
  find 0

(* How long a server may take to serve, and the shard builder to finish. *)
let timeout_s = 120.0

(* Poll until [t] serves and answers PING; the port, or why not. *)
let wait_ready t =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match serving_port t.log with
    | Some port when ping port -> Ok port
    | _ ->
        if reaped t then Error (Printf.sprintf "%s exited: %s" t.name (log_tail t))
        else if Unix.gettimeofday () > deadline then
          Error (Printf.sprintf "%s not ready after %.0f s" t.name timeout_s)
        else begin
          Thread.delay 0.002;
          go ()
        end
  in
  go ()

(* Run [exe] to completion (the shard builder). *)
let run ~exe ~args ~log ~name () =
  let t = spawn ~exe ~args ~log ~name in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          Error (Printf.sprintf "%s did not finish in %.0f s" name timeout_s)
        end
        else begin
          Thread.delay 0.002;
          go ()
        end
    | _, Unix.WEXITED 0 -> Ok ()
    | _, _ -> Error (Printf.sprintf "%s failed: %s" name (log_tail t))
  in
  go ()

(* Fields of /proc/<pid>/status and /proc/<pid>/stat. *)
let vm_hwm_kb t =
  String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" t.pid))
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> (
             match List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v)) with
             | kb :: _ -> int_of_string_opt kb
             | [] -> None)
         | _ -> None)

(* utime + stime in clock ticks; the command name may hold spaces, so
   fields are counted after its closing parenthesis. *)
let cpu_ticks t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  match String.rindex_opt s ')' with
  | None -> None
  | Some i -> (
      let fields =
        List.filter (( <> ) "") (String.split_on_char ' ' (String.sub s (i + 1) (String.length s - i - 1)))
      in
      (* fields.(0) is the state (stat field 3); utime and stime are
         stat fields 14 and 15. *)
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> Some (u + s)
          | _ -> None)
      | _ -> None)

(* [signal] to every process at once, by default SIGINT (flix_serve
   shuts down cleanly on it, in about a second), then SIGKILL to any that
   lingers 10 s; always reaps. *)
let stop_all ?(signal = Sys.sigint) ts =
  let live = List.filter (fun t -> not (reaped t)) ts in
  List.iter (fun t -> try Unix.kill t.pid signal with Unix.Unix_error _ -> ()) live;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    match List.filter (fun t -> not (reaped t)) live with
    | [] -> ()
    | left when Unix.gettimeofday () > deadline ->
        List.iter
          (fun t ->
            (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
            (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
            t.exited <- true)
          left
    | _ ->
        Thread.delay 0.005;
        go ()
  in
  go ()
