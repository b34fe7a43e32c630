(** A log-structured heap of variable-length records over a {!Pager}
    file. Records are length-prefixed byte strings written sequentially,
    spanning page boundaries freely; a record's handle is its byte
    position. This is the "table" the disk-backed indexes store their
    labels in — the equivalent of the paper's database tables, minus the
    SQL. *)

type t
type handle = int
(** Byte position of the record; stable across reopen. *)

val create : Pager.t -> t
(** Wrap a pager; an empty file starts a fresh heap, otherwise the
    existing heap is resumed (the write cursor is recovered from the
    pager's page count and the trailer record). *)

val append : t -> string -> handle
(** Write a record at the end; O(record size / page size) page writes. *)

type batch
(** A run of appends written to the pager in large page-chunked writes
    — for bulk loads of many small records. *)

val batch : t -> batch

val add : batch -> string -> handle
(** Like {!append}, but the bytes reach the pager only when the batch
    fills or at {!flush_batch}; the handle is final at once. No plain
    {!append} may run while a batch has unflushed records (raises
    [Invalid_argument] on the next {!add} if one did). *)

val flush_batch : batch -> unit
(** Write the buffered records; they are readable afterwards. *)

val read : t -> handle -> string
(** @raise Fx_util.Codec.Corrupt on an invalid handle or a mangled
    length prefix. *)

val size_bytes : t -> int
(** Bytes of record payload written (excluding page headers/slack). *)

val last_handle : t -> handle option
(** The most recently written record — a natural place for a directory
    trailer. Recovered on reopen. *)

(** {2 Windowed readers}

    For records read as a stream: bytes arrive through the pool one
    window at a time (from the read position to the end of its page
    or of the record), so consuming a prefix of a large record touches
    only the pages the prefix spans, and a small record costs a single
    pool read. *)

type reader

val reader : t -> handle -> reader
(** Open the record at [handle], positioned at payload offset 0.
    @raise Fx_util.Codec.Corrupt on an invalid handle or a mangled
    length prefix. *)

val fork : reader -> int -> reader
(** A second, independent reader of the same record at the given
    payload offset, sharing the first one's loaded window. *)

val reader_length : reader -> int
val offset : reader -> int

val byte : reader -> int
(** The next payload byte.
    @raise Fx_util.Codec.Corrupt past the end of the record. *)
