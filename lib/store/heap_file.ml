(* Byte positions address a contiguous record space laid over the data
   pages: position p lives at page (p / page_size), offset (p mod
   page_size). Each record is a 4-byte big-endian length followed by the
   payload. The header's root is the last record's position. *)

type handle = int

let corrupt msg = raise (Fx_util.Codec.Corrupt msg)

(* --- the writer ---------------------------------------------------------- *)

(* Every byte is written with single_write, which moves at most one
   kernel call's worth: when EINTR interrupts it nothing was written,
   so the retry neither repeats nor skips bytes. *)
let rec write_all fd buf pos len =
  if len > 0 then
    match Unix.single_write fd buf pos len with
    | k -> write_all fd buf (pos + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf pos len

let rec fsync fd = try Unix.fsync fd with Unix.Unix_error (Unix.EINTR, _, _) -> fsync fd

(* Records reach the file in chunks of about this many bytes. *)
let chunk_bytes = 1 lsl 16

let write_file ?(page_size = 4096) path f =
  let placeholder = Pager.header ~page_size ~root:None in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd placeholder 0 page_size;
      let buf = Buffer.create chunk_bytes in
      let drain () =
        write_all fd (Buffer.to_bytes buf) 0 (Buffer.length buf);
        Buffer.clear buf
      in
      let cursor = ref 0 and last = ref None in
      let add s =
        if s = "" then invalid_arg "Heap_file.write_file: empty record";
        let handle = !cursor in
        Buffer.add_int32_be buf (Int32.of_int (String.length s));
        Buffer.add_string buf s;
        cursor := handle + 4 + String.length s;
        last := Some handle;
        if Buffer.length buf >= chunk_bytes then drain ();
        handle
      in
      let result = f add in
      let tail = !cursor mod page_size in
      if tail > 0 then Buffer.add_string buf (String.make (page_size - tail) '\000');
      drain ();
      ignore (Unix.lseek fd 0 Unix.SEEK_SET);
      write_all fd (Pager.header ~page_size ~root:!last) 0 page_size;
      fsync fd;
      result)

(* --- reads --------------------------------------------------------------- *)

let page_of t pos = pos / Pager.page_size t
let off_of t pos = pos mod Pager.page_size t
let capacity t = Pager.n_pages t * Pager.page_size t

(* Read [len] bytes starting at byte position [pos], crossing pages.
   The bound is written as [len > capacity - pos] so a hostile length
   from a mangled prefix cannot overflow [pos + len] to a negative and
   slip past the check. *)
let read_bytes t pos len =
  if len < 0 || pos < 0 || pos > capacity t || len > capacity t - pos then
    corrupt "Heap_file: out of range";
  let out = Bytes.create len in
  let rec go pos written =
    if written < len then begin
      let page = page_of t pos and off = off_of t pos in
      let chunk = min (len - written) (Pager.page_size t - off) in
      let piece = Pager.read t ~page ~offset:off ~len:chunk in
      Bytes.blit piece 0 out written chunk;
      go (pos + chunk) (written + chunk)
    end
  in
  go pos 0;
  Bytes.to_string out

let read_length t pos =
  let s = read_bytes t pos 4 in
  Int32.to_int (String.get_int32_be s 0)

let read t handle =
  if handle < 0 || handle > capacity t - 4 then corrupt "Heap_file.read: bad handle";
  let len = read_length t handle in
  if len <= 0 || len > capacity t - handle - 4 then
    corrupt "Heap_file.read: mangled length prefix";
  read_bytes t (handle + 4) len

let last_handle = Pager.root

(* --- windowed record readers ------------------------------------------ *)

(* A reader pulls a record's bytes through the pool one window at a
   time — from the read position to the end of its page or of the
   record — so a caller that decodes only a prefix of a large record
   pays only for the pages it touches. Windows are fresh copies (see
   Pager.read) and never mutated, so forks can share them. *)
type reader = {
  pager : Pager.t;
  base : int; (* position of payload byte 0 *)
  len : int;
  mutable pos : int; (* payload offset of the next byte *)
  mutable win : bytes;
  mutable win_at : int; (* file position of win.[0] *)
}

let window t pos limit =
  let n = min (Pager.page_size t - off_of t pos) (limit - pos) in
  Pager.read t ~page:(page_of t pos) ~offset:(off_of t pos) ~len:n

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
  { pager = t; base = handle + 4; len; pos = 0; win; win_at = handle }

let fork r off =
  if off < 0 || off > r.len then corrupt "Heap_file.fork: offset out of range";
  { r with pos = off }

let reader_length r = r.len
let offset r = r.pos

let byte r =
  if r.pos >= r.len then corrupt "Heap_file: read past the record end";
  let at = r.base + r.pos in
  if at < r.win_at || at >= r.win_at + Bytes.length r.win then begin
    r.win <- window r.pager at (r.base + r.len);
    r.win_at <- at
  end;
  r.pos <- r.pos + 1;
  Bytes.get_uint8 r.win (at - r.win_at)
