(* Spans of the traced run, kept in memory per client thread and written
   at the end as Chrome trace-event JSON (load it in chrome://tracing or
   Perfetto).

   Every operation is one small tree: an [op] root whose children are
   the [wire] round trip and the in-process replay's [protocol.parse],
   [resolve], [eval] and [protocol.render]. A span's self time is its
   duration minus the part of it that its children cover; self times
   are summed per key as operations finish, so the totals cover every
   operation even when the span log is capped. *)

type span = {
  name : string;
  keys : string list;  (** aggregation keys its self time is added to *)
  parent : int;  (** index of the parent within the operation, -1 for the root *)
  t0 : int64;
  t1 : int64;
  args : (string * string) list;
}

type recorder = {
  tid : int;
  mutable log : (int * span) list;  (** (op id, span), newest first *)
  mutable logged : int;
  totals : (string, float ref * int ref) Hashtbl.t;  (** key -> (self ms, count) *)
}

(* Spans logged per recorder; self-time totals keep counting past it. *)
let cap = 60_000

let recorder tid = { tid; log = []; logged = 0; totals = Hashtbl.create 32 }

let span ?(keys = []) ?(args = []) ~parent name t0 t1 =
  { name; keys = name :: keys; parent; t0; t1; args }

(* Length of [t0, t1] covered by the union of [intervals]. *)
let covered t0 t1 intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Int64.max a t0 and b = Int64.min b t1 in
        if Int64.compare a b < 0 then Some (a, b) else None)
      intervals
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  let total, last =
    List.fold_left
      (fun (acc, (ca, cb)) (a, b) ->
        if Int64.compare a cb <= 0 then (acc, (ca, Int64.max cb b))
        else (Int64.add acc (Int64.sub cb ca), (a, b)))
      (0L, (t0, t0)) clipped
  in
  Int64.add total (Int64.sub (snd last) (fst last))

let self_ns spans i =
  let s = spans.(i) in
  let children = ref [] in
  Array.iter (fun c -> if c.parent = i then children := (c.t0, c.t1) :: !children) spans;
  Int64.sub (Int64.sub s.t1 s.t0) (covered s.t0 s.t1 !children)

let add r key ms =
  match Hashtbl.find_opt r.totals key with
  | Some (sum, n) ->
      sum := !sum +. ms;
      incr n
  | None -> Hashtbl.replace r.totals key (ref ms, ref 1)

let finish_op r ~op spans =
  let spans = Array.of_list spans in
  Array.iteri
    (fun i s ->
      let ms = Int64.to_float (self_ns spans i) /. 1e6 in
      List.iter (fun k -> add r k ms) s.keys)
    spans;
  if r.logged < cap then begin
    Array.iter (fun s -> r.log <- (op, s) :: r.log) spans;
    r.logged <- r.logged + Array.length spans
  end

(* Mean self time in ms per key, merged over recorders. *)
let self_means recorders =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun k (sum, n) ->
          let s, c = Option.value (Hashtbl.find_opt merged k) ~default:(0.0, 0) in
          Hashtbl.replace merged k (s +. !sum, c + !n))
        r.totals)
    recorders;
  Hashtbl.fold (fun k (s, c) acc -> (k, s /. float_of_int c, c) :: acc) merged []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let write_chrome ~path ~epoch_ns recorders =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      let first = ref true in
      List.iter
        (fun r ->
          List.iter
            (fun (op, s) ->
              let us t = Int64.to_float (Int64.sub t epoch_ns) /. 1e3 in
              let ev =
                Json.Obj
                  [
                    ("name", Json.Str s.name);
                    ("cat", Json.Str "flixbench");
                    ("ph", Json.Str "X");
                    ("ts", Json.Num (us s.t0));
                    ("dur", Json.Num (Int64.to_float (Int64.sub s.t1 s.t0) /. 1e3));
                    ("pid", Json.Num 1.0);
                    ("tid", Json.Num (float_of_int r.tid));
                    ( "args",
                      Json.Obj
                        (("op", Json.Num (float_of_int op))
                        :: List.map (fun (k, v) -> (k, Json.Str v)) s.args) );
                  ]
              in
              if not !first then output_char oc ',';
              first := false;
              output_string oc "\n";
              output_string oc (Json.to_string ev))
            (List.rev r.log))
        recorders;
      output_string oc "\n]}\n")
