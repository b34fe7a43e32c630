type request =
  | Ping
  | Stats
  | Metrics
  | Sleep of int
  | Descendants of {
      doc : string;
      anchor : string option;
      tag : string option;
      k : int;
      max_dist : int option;
    }
  | Node_descendants of { node : int; tag : string option; k : int; max_dist : int option }
  | Ancestors of { node : int; tag : string option; k : int; max_dist : int option }
  | Connected of { a : int; b : int; max_dist : int option }
  | Evaluate of {
      start_tag : string;
      target_tag : string;
      k : int;
      max_dist : int option;
    }
  | Resolve of { doc : string; anchor : string option }
  | Evict of string list
  | Reload
  | Epoch_query

type item = { node : int; dist : int; meta : int }

type response =
  | Pong
  | Ok_done
  | Busy
  | Err of string
  | Dist of int option
  | Items of { items : item list; timed_out : bool; partial : bool }
  | Lines of string list
  | Epoch of int

type envelope = { deadline_ms : int option; req : request }

let verb = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Sleep _ -> "sleep"
  | Descendants _ | Node_descendants _ -> "descendants"
  | Ancestors _ -> "ancestors"
  | Connected _ -> "connected"
  | Evaluate _ -> "evaluate"
  | Resolve _ -> "resolve"
  | Evict _ -> "evict"
  | Reload -> "reload"
  | Epoch_query -> "epoch"

(* The admin verbs run on the connection thread (serialized by the
   server's admin lock), not through the worker pool: a reload may take
   seconds and must not occupy a query worker. *)
let pool_bound = function
  | Ping | Metrics | Evict _ | Reload | Epoch_query -> false
  | Stats | Sleep _ | Descendants _ | Node_descendants _ | Ancestors _ | Connected _
  | Evaluate _ | Resolve _ ->
      true

(* The probe verbs a BATCH envelope may carry. SLEEP rides along as the
   diagnostic stand-in for a slow sub-request, exactly as it does for
   single requests. *)
let batch_allowed = function
  | Connected _ | Node_descendants _ | Ancestors _ | Resolve _ | Sleep _ -> true
  | Ping | Stats | Metrics | Descendants _ | Evaluate _ | Evict _ | Reload | Epoch_query
    ->
      false

(* --- requests ------------------------------------------------------- *)

let opt_field = function None -> "-" | Some s -> s
let parse_opt_field = function "-" -> None | s -> Some s

let int_of ~what s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "%s must be an integer, got %S" what s)

let ( let* ) = Result.bind

(* [k] is a result cap: accept any positive count. *)
let positive ~what n =
  if n > 0 then Ok n else Error (Printf.sprintf "%s must be positive" what)

let non_negative ~what n =
  if n >= 0 then Ok n else Error (Printf.sprintf "%s must be >= 0" what)

let parse_max_dist = function
  | [] -> Ok None
  | [ s ] ->
      let* d = int_of ~what:"max_dist" s in
      let* d = non_negative ~what:"max_dist" d in
      Ok (Some d)
  | _ -> Error "trailing tokens after max_dist"

(* The shared <node> <tag|-> <k> [max] argument shape of the
   node-addressed stream verbs. *)
let parse_node_stream ~make node tag k rest =
  let* node = int_of ~what:"node" node in
  let* node = non_negative ~what:"node" node in
  let* k = int_of ~what:"k" k in
  let* k = positive ~what:"k" k in
  let* max_dist = parse_max_dist rest in
  Ok (make ~node ~tag:(parse_opt_field tag) ~k ~max_dist)

let parse_tokens tokens =
  match tokens with
  | [] -> Error "empty request"
  | cmd :: args -> (
      match (String.uppercase_ascii cmd, args) with
      | "PING", [] -> Ok Ping
      | "STATS", [] -> Ok Stats
      | "METRICS", [] -> Ok Metrics
      | "SLEEP", [ ms ] ->
          let* ms = int_of ~what:"ms" ms in
          let* ms = non_negative ~what:"ms" ms in
          Ok (Sleep ms)
      | "DESCENDANTS", doc :: anchor :: tag :: k :: rest ->
          let* k = int_of ~what:"k" k in
          let* k = positive ~what:"k" k in
          let* max_dist = parse_max_dist rest in
          Ok
            (Descendants
               {
                 doc;
                 anchor = parse_opt_field anchor;
                 tag = parse_opt_field tag;
                 k;
                 max_dist;
               })
      | "NDESCENDANTS", node :: tag :: k :: rest ->
          parse_node_stream node tag k rest ~make:(fun ~node ~tag ~k ~max_dist ->
              Node_descendants { node; tag; k; max_dist })
      | "ANCESTORS", node :: tag :: k :: rest ->
          parse_node_stream node tag k rest ~make:(fun ~node ~tag ~k ~max_dist ->
              Ancestors { node; tag; k; max_dist })
      | "CONNECTED", a :: b :: rest ->
          let* a = int_of ~what:"a" a in
          let* b = int_of ~what:"b" b in
          let* max_dist = parse_max_dist rest in
          Ok (Connected { a; b; max_dist })
      | "EVALUATE", start_tag :: target_tag :: k :: rest ->
          let* k = int_of ~what:"k" k in
          let* k = positive ~what:"k" k in
          let* max_dist = parse_max_dist rest in
          Ok (Evaluate { start_tag; target_tag; k; max_dist })
      | "RESOLVE", [ doc; anchor ] ->
          Ok (Resolve { doc; anchor = parse_opt_field anchor })
      | "EVICT", (_ :: _ as docs) -> Ok (Evict docs)
      | "RELOAD", [] -> Ok Reload
      | "EPOCH", [] -> Ok Epoch_query
      | ( ( "PING" | "STATS" | "METRICS" | "SLEEP" | "DESCENDANTS" | "NDESCENDANTS"
          | "ANCESTORS" | "CONNECTED" | "EVALUATE" | "RESOLVE" | "EVICT" | "RELOAD"
          | "EPOCH" ),
          _ ) ->
          Error (Printf.sprintf "wrong number of arguments for %s" cmd)
      | _ -> Error (Printf.sprintf "unknown verb %S" cmd))

let tokenize line =
  List.filter (fun t -> t <> "") (String.split_on_char ' ' (String.trim line))

let parse_envelope line =
  match tokenize line with
  | cmd :: ms :: rest when String.uppercase_ascii cmd = "DEADLINE" ->
      let* ms = int_of ~what:"deadline ms" ms in
      let* ms = non_negative ~what:"deadline ms" ms in
      let* req = parse_tokens rest in
      Ok { deadline_ms = Some ms; req }
  | tokens ->
      let* req = parse_tokens tokens in
      Ok { deadline_ms = None; req }

let parse_request line = Result.map (fun e -> e.req) (parse_envelope line)

(* --- batches -------------------------------------------------------- *)

type framed =
  | Single of envelope
  | Batch of { deadline_ms : int option; n : int }
  | Ingest of { n : int }

(* A request line is either a plain envelope or a BATCH/INGEST header
   announcing sub-lines to follow. The DEADLINE prefix composes with
   plain requests and batches and covers the whole batch; an ingest is
   an administrative operation that takes as long as the index build
   takes. *)
let parse_framed line =
  let batch deadline_ms n =
    let* n = int_of ~what:"batch size" n in
    let* n = positive ~what:"batch size" n in
    Ok (Batch { deadline_ms; n })
  in
  match tokenize line with
  | [ cmd; n ] when String.uppercase_ascii cmd = "BATCH" -> batch None n
  | [ cmd; n ] when String.uppercase_ascii cmd = "INGEST" ->
      let* n = int_of ~what:"ingest count" n in
      let* n = positive ~what:"ingest count" n in
      Ok (Ingest { n })
  | [ cmd; ms; batch_kw; n ]
    when String.uppercase_ascii cmd = "DEADLINE"
         && String.uppercase_ascii batch_kw = "BATCH" ->
      let* ms = int_of ~what:"deadline ms" ms in
      let* ms = non_negative ~what:"deadline ms" ms in
      batch (Some ms) n
  | _ ->
      let* e = parse_envelope line in
      Ok (Single e)

let batch_line ?deadline_ms n =
  match deadline_ms with
  | None -> Printf.sprintf "BATCH %d" n
  | Some ms -> Printf.sprintf "DEADLINE %d BATCH %d" ms n

let sub_line i = Printf.sprintf "SUB %d" i

(* --- ingest document frames ---------------------------------------- *)

let ingest_line n = Printf.sprintf "INGEST %d" n

let doc_line ~name ~n_lines = Printf.sprintf "DOC %s %d" name n_lines

(* Document names are single tokens, like everywhere else on this
   protocol (DESCENDANTS <doc>, RESOLVE <doc>). *)
let parse_doc_line line =
  match tokenize line with
  | [ cmd; name; n ] when String.uppercase_ascii cmd = "DOC" ->
      let* n = int_of ~what:"document line count" n in
      let* n = non_negative ~what:"document line count" n in
      Ok (name, n)
  | _ -> Error (Printf.sprintf "expected DOC <name> <lines> header, got %S" line)

let request_line r =
  let md = function None -> "" | Some d -> " " ^ string_of_int d in
  match r with
  | Ping -> "PING"
  | Stats -> "STATS"
  | Metrics -> "METRICS"
  | Sleep ms -> Printf.sprintf "SLEEP %d" ms
  | Descendants { doc; anchor; tag; k; max_dist } ->
      Printf.sprintf "DESCENDANTS %s %s %s %d%s" doc (opt_field anchor)
        (opt_field tag) k (md max_dist)
  | Node_descendants { node; tag; k; max_dist } ->
      Printf.sprintf "NDESCENDANTS %d %s %d%s" node (opt_field tag) k (md max_dist)
  | Ancestors { node; tag; k; max_dist } ->
      Printf.sprintf "ANCESTORS %d %s %d%s" node (opt_field tag) k (md max_dist)
  | Connected { a; b; max_dist } -> Printf.sprintf "CONNECTED %d %d%s" a b (md max_dist)
  | Evaluate { start_tag; target_tag; k; max_dist } ->
      Printf.sprintf "EVALUATE %s %s %d%s" start_tag target_tag k (md max_dist)
  | Resolve { doc; anchor } -> Printf.sprintf "RESOLVE %s %s" doc (opt_field anchor)
  | Evict docs -> "EVICT " ^ String.concat " " docs
  | Reload -> "RELOAD"
  | Epoch_query -> "EPOCH"

let envelope_line ?deadline_ms r =
  match deadline_ms with
  | None -> request_line r
  | Some ms -> Printf.sprintf "DEADLINE %d %s" ms (request_line r)

(* --- responses ------------------------------------------------------ *)

(* Decimal digits straight into [b]: an answer is mostly ITEM lines, and
   Printf costs several times what the rest of writing one does. *)
let rec add_int b n =
  if n < 0 then Buffer.add_string b (string_of_int n)
  else begin
    if n >= 10 then add_int b (n / 10);
    Buffer.add_char b (Char.unsafe_chr (Char.code '0' + (n mod 10)))
  end

let add_item_line b { node; dist; meta } =
  Buffer.add_string b "ITEM ";
  add_int b node;
  Buffer.add_char b ' ';
  add_int b dist;
  Buffer.add_char b ' ';
  add_int b meta

let item_line it =
  let b = Buffer.create 24 in
  add_item_line b it;
  Buffer.contents b

let items_trailer ~count ~timed_out ~partial =
  let word = if timed_out then "TIMEOUT" else if partial then "PARTIAL" else "DONE" in
  Printf.sprintf "%s %d" word count

let response_lines = function
  | Pong -> [ "PONG" ]
  | Ok_done -> [ "OK" ]
  | Busy -> [ "BUSY" ]
  | Err msg ->
      (* The message must stay on one line to keep the framing intact. *)
      [ "ERR " ^ String.map (function '\n' | '\r' -> ' ' | c -> c) msg ]
  | Dist None -> [ "NODIST" ]
  | Dist (Some d) -> [ Printf.sprintf "DIST %d" d ]
  | Items { items; timed_out; partial } ->
      List.map item_line items
      @ [ items_trailer ~count:(List.length items) ~timed_out ~partial ]
  | Lines payload ->
      Printf.sprintf "LINES %d" (List.length payload) :: payload
  | Epoch e -> [ Printf.sprintf "EPOCH %d" e ]

type trailer = { count : int; timed_out : bool; partial : bool }

let trailer_of_line line =
  match String.split_on_char ' ' line with
  | [ word; n ] -> (
      match (word, int_of_string_opt n) with
      | "DONE", Some count -> Some { count; timed_out = false; partial = false }
      | "TIMEOUT", Some count -> Some { count; timed_out = true; partial = false }
      | "PARTIAL", Some count -> Some { count; timed_out = false; partial = true }
      | _ -> None)
  | _ -> None

(* One full response, stream items accumulated in arrival order. *)
let read_response read_line =
  let acc = ref [] in
  (* One line of pushback so the first ITEM/DONE line can be re-examined
     by the item-stream loop. *)
  let pending = ref None in
  let read_line () =
    match !pending with
    | Some l ->
        pending := None;
        Some l
    | None -> read_line ()
  in
  let rec items n =
    match read_line () with
    | None -> Error "connection closed mid-response"
    | Some line -> (
        match String.split_on_char ' ' line with
        | [ "ITEM"; node; dist; meta ] -> (
            match
              (int_of_string_opt node, int_of_string_opt dist, int_of_string_opt meta)
            with
            | Some node, Some dist, Some meta ->
                acc := { node; dist; meta } :: !acc;
                items (n + 1)
            | _ -> Error (Printf.sprintf "malformed ITEM line %S" line))
        | ("DONE" | "TIMEOUT" | "PARTIAL") :: _ -> (
            match trailer_of_line line with
            | Some t when t.count = n ->
                Ok (Items { items = List.rev !acc; timed_out = t.timed_out; partial = t.partial })
            | Some _ -> Error (Printf.sprintf "trailer count mismatch in %S" line)
            | None -> Error (Printf.sprintf "malformed trailer line %S" line))
        | _ -> Error (Printf.sprintf "unexpected line %S in item stream" line))
  in
  let rec raw_lines n acc =
    if n = 0 then Ok (Lines (List.rev acc))
    else
      match read_line () with
      | None -> Error "connection closed mid-payload"
      | Some line -> raw_lines (n - 1) (line :: acc)
  in
  match read_line () with
  | None -> Error "connection closed"
  | Some line -> (
      match String.split_on_char ' ' line with
      | [ "PONG" ] -> Ok Pong
      | [ "OK" ] -> Ok Ok_done
      | [ "BUSY" ] -> Ok Busy
      | "ERR" :: _ ->
          let msg =
            if String.length line > 4 then String.sub line 4 (String.length line - 4)
            else ""
          in
          Ok (Err msg)
      | [ "NODIST" ] -> Ok (Dist None)
      | [ "DIST"; d ] -> (
          match int_of_string_opt d with
          | Some d -> Ok (Dist (Some d))
          | None -> Error (Printf.sprintf "malformed DIST line %S" line))
      | [ "LINES"; n ] -> (
          match int_of_string_opt n with
          | Some n when n >= 0 -> raw_lines n []
          | _ -> Error (Printf.sprintf "malformed LINES header %S" line))
      | [ "EPOCH"; e ] -> (
          match int_of_string_opt e with
          | Some e -> Ok (Epoch e)
          | None -> Error (Printf.sprintf "malformed EPOCH line %S" line))
      | ("ITEM" | "DONE" | "TIMEOUT" | "PARTIAL") :: _ ->
          pending := Some line;
          items 0
      | _ -> Error (Printf.sprintf "unexpected response line %S" line))

(* Read the [n] SUB-tagged answers of a batch, each matched by its SUB
   index and delivered through [on_response] as soon as its trailer is
   read, so a transport failure mid-batch still leaves the caller with
   the answered prefix. *)
let read_batch_responses read_line ~n ~on_response =
  let seen = Array.make n false in
  let rec sub remaining =
    if remaining = 0 then Ok ()
    else
      match read_line () with
      | None -> Error "connection closed mid-batch"
      | Some line -> (
          match String.split_on_char ' ' line with
          | [ "SUB"; i ] -> (
              match int_of_string_opt i with
              | Some i when i >= 0 && i < n && not seen.(i) -> (
                  seen.(i) <- true;
                  match read_response read_line with
                  | Ok resp ->
                      on_response i resp;
                      sub (remaining - 1)
                  | Error _ as e -> e)
              | Some i when i >= 0 && i < n ->
                  Error (Printf.sprintf "duplicate batch index %d" i)
              | _ -> Error (Printf.sprintf "batch index out of range in %S" line))
          | _ -> Error (Printf.sprintf "expected SUB header, got %S" line))
  in
  sub n
