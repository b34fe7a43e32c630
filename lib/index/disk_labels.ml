module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file
module Codec = Fx_util.Codec
module Run_merge = Fx_graph.Run_merge

(* File layout (records in one heap file):
     [label record]*          one per non-empty L_in / L_out
     [run record]*            one per hop rank and direction: the
                              hop's inverted label, grouped by the
                              target node's tag
     [tag record]*            one per tag id carrying nodes: its nodes
     [directory record]       n, then per node: in handle, out handle
                              (-1 = empty label); per hop rank:
                              down-run handle, up-run handle; per tag
                              id: tag-record handle (-1 = no nodes)
     [trailer record]         directory handle, store layout
   The trailer is always the last record, and the heap header's root
   points at it, so open finds the directory without walking the heap.
   Earlier stores (a header without a root; then no layout field:
   labels only; 1: no tag records) are refused at open.

   A run record, every number an unsigned LEB128 varint:
     ngroups, then per group: tag, count, payload bytes
     then the groups' payloads in header order, each [count] entries
     (d, y) ascending by (d, y)
   The down run of hop h holds every (y, d) with (h, d) in L_in(y): the
   nodes h reaches, by distance. The up run mirrors it over L_out.

   A tag record is the tag's nodes ascending, each a varint delta from
   the previous one (the first from -1), so every delta is >= 1. *)

type t = {
  pager : Pager.t;
  n : int;
  in_handle : int array;  (* -1 = empty label *)
  out_handle : int array;
  down : int array;  (* hop rank -> run handle, -1 = empty run *)
  up : int array;
  tag_handle : int array;  (* tag id -> tag record handle, -1 = no nodes *)
}

let label_magic = "fxlab"
let dir_magic = "fxdir"
let trailer_magic = "fxend"
let store_layout = 2

let encode_label labels side v =
  let w = Codec.Writer.create ~magic:label_magic in
  Codec.Writer.int w (Two_hop.label_length labels side v);
  Two_hop.iter_label labels side v (fun hop dist ->
      Codec.Writer.int w hop;
      Codec.Writer.int w dist);
  Codec.Writer.contents w

let decode_label data =
  let r = Codec.Reader.create ~magic:label_magic data in
  let len = Codec.Reader.int r in
  if len < 0 then raise (Codec.Corrupt "negative label length");
  let entries = Array.init len (fun _ ->
      let hop = Codec.Reader.int r in
      let dist = Codec.Reader.int r in
      (hop, dist))
  in
  Codec.Reader.expect_end r;
  entries

(* --- run construction ------------------------------------------------ *)

let add_uvarint b v =
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
    else begin
      Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
      go (v lsr 7)
    end
  in
  go v

(* Sort a tag group's (d, y) keys, packed by [Run_merge.pack]. They
   arrive ascending by y, so a stable counting pass over the group's
   few distinct distances finishes the (d, y) order in linear time;
   tiny groups take an insertion sort. *)
let sort_group ~bits a lo hi =
  let len = hi - lo in
  if len <= 16 then
    for i = lo + 1 to hi - 1 do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let d_lo = ref max_int and d_hi = ref 0 in
    for i = lo to hi - 1 do
      let d = Run_merge.dist ~bits a.(i) in
      if d < !d_lo then d_lo := d;
      if d > !d_hi then d_hi := d
    done;
    let range = !d_hi - !d_lo + 1 in
    let sorted =
      if range > len then begin
        let sub = Array.sub a lo len in
        Array.sort Int.compare sub;
        sub
      end
      else begin
        let next = Array.make (range + 1) 0 in
        for i = lo to hi - 1 do
          let k = Run_merge.dist ~bits a.(i) - !d_lo + 1 in
          next.(k) <- next.(k) + 1
        done;
        for k = 1 to range do
          next.(k) <- next.(k) + next.(k - 1)
        done;
        let out = Array.make len 0 in
        for i = lo to hi - 1 do
          let k = Run_merge.dist ~bits a.(i) - !d_lo in
          out.(next.(k)) <- a.(i);
          next.(k) <- next.(k) + 1
        done;
        out
      end
    in
    Array.blit sorted 0 a lo len
  end

(* Every node grouped by tag id, ascending within a tag: the nodes of
   tag g are [order.(off.(g)) .. order.(off.(g + 1) - 1)]. *)
let group_by_tag tags =
  let n_tags = 1 + Array.fold_left max (-1) tags in
  let off = Array.make (n_tags + 1) 0 in
  Array.iter (fun tag -> off.(tag + 1) <- off.(tag + 1) + 1) tags;
  for tag = 1 to n_tags do
    off.(tag) <- off.(tag) + off.(tag - 1)
  done;
  let next = Array.sub off 0 n_tags in
  let order = Array.make (Array.length tags) 0 in
  Array.iteri
    (fun y tag ->
      order.(next.(tag)) <- y;
      next.(tag) <- next.(tag) + 1)
    tags;
  (order, off)

(* Invert one side of the labels into one run record per hop rank and
   return the handles. Targets are visited in (tag, id) order and their
   entries bucketed by hop, which leaves every bucket ordered by
   (tag, y); each tag group then sorts its packed (d, y) keys. One int
   per entry in flight, no per-entry tuples. *)
let write_runs add labels side ~tags ~by_tag =
  let n = Two_hop.n_nodes labels in
  let bits = Run_merge.bits n in
  let start = Array.make (n + 1) 0 in
  for y = 0 to n - 1 do
    Two_hop.iter_label labels side y (fun h _ -> start.(h + 1) <- start.(h + 1) + 1)
  done;
  for h = 1 to n do
    start.(h) <- start.(h) + start.(h - 1)
  done;
  let fill = Array.sub start 0 n in
  let dy = Array.make start.(n) 0 in
  Array.iter
    (fun y ->
      Two_hop.iter_label labels side y (fun h d ->
          if d > Run_merge.dist ~bits max_int then
            invalid_arg "Disk_labels.save: distance too large";
          dy.(fill.(h)) <- Run_merge.pack ~bits d y;
          fill.(h) <- fill.(h) + 1))
    by_tag;
  let handles = Array.make n (-1) in
  let record = Buffer.create 4096 and payload = Buffer.create 4096 in
  let groups = Buffer.create 64 in
  for h = 0 to n - 1 do
    if start.(h + 1) > start.(h) then begin
      Buffer.clear record;
      Buffer.clear payload;
      Buffer.clear groups;
      let n_groups = ref 0 and p = ref start.(h) in
      while !p < start.(h + 1) do
        let tag = tags.(Run_merge.node ~bits dy.(!p)) in
        let first = !p and bytes = Buffer.length payload in
        while !p < start.(h + 1) && tags.(Run_merge.node ~bits dy.(!p)) = tag do
          incr p
        done;
        sort_group ~bits dy first !p;
        for i = first to !p - 1 do
          add_uvarint payload (Run_merge.dist ~bits dy.(i));
          add_uvarint payload (Run_merge.node ~bits dy.(i))
        done;
        add_uvarint groups tag;
        add_uvarint groups (!p - first);
        add_uvarint groups (Buffer.length payload - bytes);
        incr n_groups
      done;
      add_uvarint record !n_groups;
      Buffer.add_buffer record groups;
      Buffer.add_buffer record payload;
      handles.(h) <- add (Buffer.contents record)
    end
  done;
  handles

(* One tag record per tag id carrying nodes; see the layout above. *)
let write_tags add ~order ~off =
  let record = Buffer.create 4096 in
  Array.init
    (Array.length off - 1)
    (fun tag ->
      if off.(tag + 1) = off.(tag) then -1
      else begin
        Buffer.clear record;
        let prev = ref (-1) in
        for i = off.(tag) to off.(tag + 1) - 1 do
          add_uvarint record (order.(i) - !prev);
          prev := order.(i)
        done;
        add (Buffer.contents record)
      end)

let save ?page_size ~tags ~path labels =
  let n = Two_hop.n_nodes labels in
  if Array.length tags <> n then invalid_arg "Disk_labels.save: tag array length mismatch";
  if Array.exists (fun tag -> tag < 0) tags then invalid_arg "Disk_labels.save: negative tag id";
  if Run_merge.bits n > 31 then invalid_arg "Disk_labels.save: too many nodes";
  (* Unlink, never truncate: a server still reading the old file keeps
     its inode whole. *)
  if Sys.file_exists path then Sys.remove path;
  Heap.write_file ?page_size path (fun add ->
      let store side =
        Array.init n (fun v ->
            if Two_hop.label_length labels side v = 0 then -1
            else add (encode_label labels side v))
      in
      let in_handle = store Two_hop.In in
      let out_handle = store Two_hop.Out in
      let order, off = group_by_tag tags in
      (* Down runs invert L_in, up runs invert L_out. *)
      let down = write_runs add labels Two_hop.In ~tags ~by_tag:order in
      let up = write_runs add labels Two_hop.Out ~tags ~by_tag:order in
      let tag_handle = write_tags add ~order ~off in
      let w = Codec.Writer.create ~magic:dir_magic in
      Codec.Writer.int w n;
      List.iter (Codec.Writer.int_array w) [ in_handle; out_handle; down; up; tag_handle ];
      let dir = add (Codec.Writer.contents w) in
      let tw = Codec.Writer.create ~magic:trailer_magic in
      Codec.Writer.int tw dir;
      Codec.Writer.int tw store_layout;
      ignore (add (Codec.Writer.contents tw)))

let read_directory pager =
  let stale what =
    Codec.Corrupt
      (Printf.sprintf "%s this build's layout %d; rebuild the deployment into a fresh --index-dir"
         what store_layout)
  in
  match Heap.last_handle pager with
  | None -> raise (stale "a store header without a root predates")
  | Some trailer ->
      let tr = Codec.Reader.create ~magic:trailer_magic (Heap.read pager trailer) in
      let dir_handle = Codec.Reader.int tr in
      (* The label-only layout wrote no layout field: layout 0. *)
      let layout = if Codec.Reader.at_end tr then 0 else Codec.Reader.int tr in
      if layout <> store_layout then
        raise (stale (Printf.sprintf "store layout %d is not" layout));
      Codec.Reader.expect_end tr;
      let dr = Codec.Reader.create ~magic:dir_magic (Heap.read pager dir_handle) in
      let n = Codec.Reader.int dr in
      if n < 0 then raise (Codec.Corrupt "negative node count");
      let in_handle = Codec.Reader.int_array dr in
      let out_handle = Codec.Reader.int_array dr in
      let down = Codec.Reader.int_array dr in
      let up = Codec.Reader.int_array dr in
      let tag_handle = Codec.Reader.int_array dr in
      Codec.Reader.expect_end dr;
      if List.exists (fun a -> Array.length a <> n) [ in_handle; out_handle; down; up ] then
        raise (Codec.Corrupt "directory length mismatch");
      { pager; n; in_handle; out_handle; down; up; tag_handle }

let open_ ?pool_pages path =
  if not (Sys.file_exists path) then raise (Sys_error (path ^ ": No such file or directory"));
  let pager = Pager.open_ ?pool_pages path in
  match read_directory pager with
  | t -> t
  | exception e ->
      Pager.close pager;
      raise
        (match e with
        | Codec.Corrupt msg -> Codec.Corrupt (Printf.sprintf "%s: %s" path msg)
        | e -> e)

let n_nodes t = t.n
let n_tags t = Array.length t.tag_handle

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Disk_labels: node out of range"

let fetch t handles v =
  if handles.(v) = -1 then [||] else decode_label (Heap.read t.pager handles.(v))

(* Merge-join on hop ranks, as in the in-memory index — but each side
   was just fetched through the buffer pool. *)
let distance t x y =
  check_node t x;
  check_node t y;
  if x = y then Some 0
  else begin
    let ox = fetch t t.out_handle x and iy = fetch t t.in_handle y in
    let best = ref max_int in
    let i = ref 0 and j = ref 0 in
    while !i < Array.length ox && !j < Array.length iy do
      let hi, di = ox.(!i) and hj, dj = iy.(!j) in
      if hi = hj then begin
        if di + dj < !best then best := di + dj;
        incr i;
        incr j
      end
      else if hi < hj then incr i
      else incr j
    done;
    if !best = max_int then None else Some !best
  end

let reachable t x y = distance t x y <> None

(* --- hop runs --------------------------------------------------------- *)

type direction = Down | Up

let hops t dir v =
  check_node t v;
  fetch t (match dir with Down -> t.out_handle | Up -> t.in_handle) v

type cursor = {
  r : Heap.reader;
  bound : int; (* node ids must stay below it *)
  mutable left : int;
  mutable dist : int;
  mutable node : int;
}

let uvarint r =
  let rec go acc shift =
    if shift > 49 then raise (Codec.Corrupt "Disk_labels: run varint too long");
    let b = Heap.byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go acc (shift + 7)
  in
  go 0 0

let open_runs t dir ~hop tag =
  if hop < 0 || hop >= t.n then raise (Codec.Corrupt "Disk_labels: hop rank out of range");
  let handle = (match dir with Down -> t.down | Up -> t.up).(hop) in
  if handle < 0 then []
  else begin
    let r = Heap.reader t.pager handle in
    let n_groups = uvarint r in
    let header = List.init n_groups (fun _ ->
        let g_tag = uvarint r in
        let count = uvarint r in
        let bytes = uvarint r in
        (g_tag, count, bytes))
    in
    if
      List.fold_left (fun off (_, _, bytes) -> off + bytes) (Heap.offset r) header
      <> Heap.reader_length r
    then raise (Codec.Corrupt "Disk_labels: run header does not match its record");
    let _, cursors =
      List.fold_left
        (fun (off, acc) (g_tag, count, bytes) ->
          let acc =
            match tag with
            | Some w when w <> g_tag -> acc
            | _ ->
                { r = Heap.fork r off; bound = t.n; left = count; dist = 0; node = 0 } :: acc
          in
          (off + bytes, acc))
        (Heap.offset r, []) header
    in
    cursors
  end

let advance c =
  if c.left = 0 then false
  else begin
    c.dist <- uvarint c.r;
    c.node <- uvarint c.r;
    if c.node >= c.bound then raise (Codec.Corrupt "Disk_labels: run node out of range");
    c.left <- c.left - 1;
    true
  end

let cursor_dist c = c.dist
let cursor_node c = c.node

let nodes_by_tag t tag =
  if tag < 0 || tag >= n_tags t || t.tag_handle.(tag) < 0 then []
  else begin
    let r = Heap.reader t.pager t.tag_handle.(tag) in
    let rec go prev acc =
      if Heap.offset r = Heap.reader_length r then List.rev acc
      else begin
        let v = prev + uvarint r in
        if v = prev then raise (Codec.Corrupt "Disk_labels: tag record out of order");
        if v >= t.n then raise (Codec.Corrupt "Disk_labels: tag record node out of range");
        go v (v :: acc)
      end
    in
    go (-1) []
  end

let stats t = Pager.stats t.pager
let stripe_stats t = Pager.stripe_stats t.pager
let reset_stats t = Pager.reset_stats t.pager
let drop_pool t = Pager.drop_pool t.pager
let close t = Pager.close t.pager
