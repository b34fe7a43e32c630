(* Byte positions address a contiguous record space laid over the data
   pages: position p lives at page (p / page_size), offset (p mod
   page_size). Each record is a 4-byte big-endian length followed by the
   payload. The write cursor persists implicitly: on reopen we scan
   forward from position 0 over valid length prefixes (cheap — it reads
   only the prefix of each record). *)

type t = {
  pager : Pager.t;
  mutable cursor : int;
  mutable payload : int;
  mutable last : int option; (* handle of the most recently written record *)
}

type handle = int

let corrupt msg = raise (Fx_util.Codec.Corrupt msg)

let page_of t pos = pos / Pager.page_size t.pager
let off_of t pos = pos mod Pager.page_size t.pager

let capacity t = Pager.n_pages t.pager * Pager.page_size t.pager

(* Read [len] bytes starting at byte position [pos], crossing pages.
   The bound is written as [len > capacity - pos] so a hostile length
   from a mangled prefix cannot overflow [pos + len] to a negative and
   slip past the check. *)
let read_bytes t pos len =
  if len < 0 || pos < 0 || pos > capacity t || len > capacity t - pos then
    corrupt "Heap_file: out of range";
  (* A record spanning several pages is one sequential block scan:
     pull the span in with large reads instead of page-sized misses. *)
  (if len > 0 then
     let first = page_of t pos and last = page_of t (pos + len - 1) in
     if last > first then Pager.prefetch t.pager ~page:first ~count:(last - first + 1));
  let out = Bytes.create len in
  let rec go pos written =
    if written < len then begin
      let page = page_of t pos and off = off_of t pos in
      let chunk = min (len - written) (Pager.page_size t.pager - off) in
      let piece = Pager.read t.pager ~page ~offset:off ~len:chunk in
      Bytes.blit piece 0 out written chunk;
      go (pos + chunk) (written + chunk)
    end
  in
  go pos 0;
  Bytes.to_string out

let write_bytes t pos s =
  let len = String.length s in
  (* Grow the file as needed. *)
  while pos + len > capacity t do
    ignore (Pager.append_page t.pager)
  done;
  let rec go pos written =
    if written < len then begin
      let page = page_of t pos and off = off_of t pos in
      let chunk = min (len - written) (Pager.page_size t.pager - off) in
      Pager.write t.pager ~page ~offset:off (Bytes.of_string (String.sub s written chunk));
      go (pos + chunk) (written + chunk)
    end
  in
  go pos 0

let length_prefix n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let read_length t pos =
  let s = read_bytes t pos 4 in
  Int32.to_int (String.get_int32_be s 0)

(* Recover the write cursor by walking the record chain; a zero length
   (zeroed fresh pages) terminates. The walk is strictly sequential, so
   a sliding readahead window keeps it from paying one disk seek per
   length prefix on a cold pool. *)
let recover_window = 32

let recover t =
  let cap = capacity t in
  let prefetched = ref 0 in
  let rec go pos payload last =
    if pos + 4 > cap then (pos, payload, last)
    else begin
      let pg = page_of t pos in
      if pg >= !prefetched then begin
        Pager.prefetch t.pager ~page:pg ~count:recover_window;
        prefetched := pg + recover_window
      end;
      let len = read_length t pos in
      if len <= 0 || len > cap - pos - 4 then (pos, payload, last)
      else go (pos + 4 + len) (payload + len) (Some pos)
    end
  in
  let cursor, payload, last = go 0 0 None in
  t.cursor <- cursor;
  t.payload <- payload;
  t.last <- last

let create pager =
  let t = { pager; cursor = 0; payload = 0; last = None } in
  if Pager.n_pages pager > 0 then recover t;
  t

let append t s =
  if s = "" then invalid_arg "Heap_file.append: empty record";
  let handle = t.cursor in
  write_bytes t handle (length_prefix (String.length s));
  write_bytes t (handle + 4) s;
  t.cursor <- handle + 4 + String.length s;
  t.payload <- t.payload + String.length s;
  t.last <- Some handle;
  handle

(* Batched appends: records accumulate in one buffer and reach the
   pager in large page-chunked writes, instead of one pool write per
   record fragment. The heap's cursor advances at [add], so handles are
   known at once; the bytes land by [flush_batch]. *)
type batch = { owner : t; buf : Buffer.t; mutable at : int (* file position of buf.[0] *) }

let batch_bytes = 1 lsl 16

let batch t = { owner = t; buf = Buffer.create batch_bytes; at = t.cursor }

let flush_batch b =
  if Buffer.length b.buf > 0 then begin
    write_bytes b.owner b.at (Buffer.contents b.buf);
    b.at <- b.at + Buffer.length b.buf;
    Buffer.clear b.buf
  end

let add b s =
  if s = "" then invalid_arg "Heap_file.add: empty record";
  let t = b.owner in
  if b.at + Buffer.length b.buf <> t.cursor then
    invalid_arg "Heap_file.add: heap appended behind the batch";
  let handle = t.cursor in
  Buffer.add_int32_be b.buf (Int32.of_int (String.length s));
  Buffer.add_string b.buf s;
  t.cursor <- handle + 4 + String.length s;
  t.payload <- t.payload + String.length s;
  t.last <- Some handle;
  if Buffer.length b.buf >= batch_bytes then flush_batch b;
  handle

let read t handle =
  if handle < 0 || handle > capacity t - 4 then corrupt "Heap_file.read: bad handle";
  let len = read_length t handle in
  if len <= 0 || len > capacity t - handle - 4 then
    corrupt "Heap_file.read: mangled length prefix";
  read_bytes t (handle + 4) len

let size_bytes t = t.payload
let last_handle t = t.last

(* --- windowed record readers ------------------------------------------ *)

(* A reader pulls a record's bytes through the pool one window at a
   time — from the read position to the end of its page or of the
   record — so a caller that decodes only a prefix of a large record
   pays only for the pages it touches. Windows are fresh copies (see
   Pager.read) and never mutated, so forks can share them. *)
type reader = {
  heap : t;
  base : int; (* position of payload byte 0 *)
  len : int;
  mutable pos : int; (* payload offset of the next byte *)
  mutable win : bytes;
  mutable win_at : int; (* file position of win.[0] *)
}

let window t pos limit =
  let n = min (Pager.page_size t.pager - off_of t pos) (limit - pos) in
  Pager.read t.pager ~page:(page_of t pos) ~offset:(off_of t pos) ~len:n

(* Bytes fetched with the length prefix, before the record's length is
   known: enough that a small record costs one pool read in all, small
   enough not to copy a page for it. *)
let first_window = 256

let reader t handle =
  if handle < 0 || handle > capacity t - 4 then corrupt "Heap_file.reader: bad handle";
  let win = window t handle (min (capacity t) (handle + first_window)) in
  let len =
    if Bytes.length win >= 4 then Int32.to_int (Bytes.get_int32_be win 0)
    else read_length t handle
  in
  if len <= 0 || len > capacity t - handle - 4 then
    corrupt "Heap_file.reader: mangled length prefix";
  { heap = t; base = handle + 4; len; pos = 0; win; win_at = handle }

let fork r off =
  if off < 0 || off > r.len then corrupt "Heap_file.fork: offset out of range";
  { r with pos = off }

let reader_length r = r.len
let offset r = r.pos

let byte r =
  if r.pos >= r.len then corrupt "Heap_file: read past the record end";
  let at = r.base + r.pos in
  if at < r.win_at || at >= r.win_at + Bytes.length r.win then begin
    r.win <- window r.heap at (r.base + r.len);
    r.win_at <- at
  end;
  r.pos <- r.pos + 1;
  Bytes.get_uint8 r.win (at - r.win_at)
