(* A parser for the Prometheus text exposition a FliX server answers
   METRICS with, and the sums the benchmark takes over it. *)

type sample = { name : string; labels : (string * string) list; value : float }

(* [k="v",k2="v2"] with backslash escapes inside the quotes. *)
let parse_labels s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then Ok (List.rev acc)
    else if s.[i] = ',' || s.[i] = ' ' then go (i + 1) acc
    else
      match String.index_from_opt s i '=' with
      | None -> Error "label without '='"
      | Some eq ->
          let key = String.trim (String.sub s i (eq - i)) in
          if eq + 1 >= n || s.[eq + 1] <> '"' then Error "unquoted label value"
          else
            let b = Buffer.create 16 in
            let rec value j =
              if j >= n then Error "unterminated label value"
              else
                match s.[j] with
                | '"' -> Ok (j + 1)
                | '\\' when j + 1 < n ->
                    Buffer.add_char b (if s.[j + 1] = 'n' then '\n' else s.[j + 1]);
                    value (j + 2)
                | c ->
                    Buffer.add_char b c;
                    value (j + 1)
            in
            (match value (eq + 2) with
            | Error _ as e -> e
            | Ok next -> go next ((key, Buffer.contents b) :: acc))
  in
  go 0 []

let parse_value s =
  match String.trim s with
  | "+Inf" -> Some Float.infinity
  | "-Inf" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | v -> float_of_string_opt v

(* One sample line: [name value] or [name{labels} value]; an optional
   trailing timestamp is ignored. *)
let parse_line line =
  let line = String.trim line in
  match String.index_opt line '{' with
  | Some lb -> (
      match String.rindex_opt line '}' with
      | None -> Error "unbalanced '{'"
      | Some rb when rb < lb -> Error "unbalanced '}'"
      | Some rb -> (
          let name = String.sub line 0 lb in
          let rest = String.sub line (rb + 1) (String.length line - rb - 1) in
          let value = List.hd (String.split_on_char ' ' (String.trim rest)) in
          match (parse_labels (String.sub line (lb + 1) (rb - lb - 1)), parse_value value) with
          | Ok labels, Some value -> Ok { name; labels; value }
          | Error e, _ -> Error e
          | _, None -> Error "bad sample value"))
  | None -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | name :: value :: _ -> (
          match parse_value value with
          | Some value -> Ok { name; labels = []; value }
          | None -> Error "bad sample value")
      | _ -> Error "sample without a value")

let parse lines =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest ->
        let t = String.trim l in
        if t = "" || t.[0] = '#' then go acc rest
        else (
          match parse_line t with
          | Ok s -> go (s :: acc) rest
          | Error e -> Error (Printf.sprintf "%s in %S" e l))
  in
  go [] lines

(* Sum of every series named [name] whose labels include all of
   [where]; 0 when there is none. A histogram's [_sum] and [_count] are
   ordinary series under this rule. *)
let sum ?(where = []) samples name =
  List.fold_left
    (fun acc s ->
      if s.name = name && List.for_all (fun kv -> List.mem kv s.labels) where then
        acc +. s.value
      else acc)
    0.0 samples
