(** A heap of variable-length records in a {!Pager} file. Records are
    length-prefixed byte strings laid out sequentially, spanning page
    boundaries freely; a record's handle is its byte position. This is
    the "table" the disk-backed indexes store their labels in — the
    equivalent of the paper's database tables, minus the SQL.

    A heap is written once, front to back, by {!write_file}, and then
    only read. *)

type handle = int
(** Byte position of the record; stable for the life of the file. *)

val write_file : ?page_size:int -> string -> ((string -> handle) -> 'a) -> 'a
(** [write_file path f] writes a fresh heap file at [path]: [f add]
    calls [add record] once per record, in file order, and [add]
    returns the record's handle at once. Once [f] returns, the last
    page is zero-padded, the header (see {!Pager.header}) is written
    with the last record's handle as its root, and the file is fsynced
    and closed. [page_size] defaults to 4096. The descriptor is closed
    on every path; a file whose write failed keeps a header without a
    root. Raises [Invalid_argument] on an empty record, [Unix_error] on
    I/O failure. *)

val read : Pager.t -> handle -> string
(** @raise Fx_util.Codec.Corrupt on an invalid handle or a mangled
    length prefix. *)

val last_handle : Pager.t -> handle option
(** The last record written — a natural place for a directory trailer.
    Read from the header's root, without touching a data page; [None]
    for a header without one. *)

(** {2 Windowed readers}

    For records read as a stream: bytes arrive through the pool one
    window at a time (from the read position to the end of its page
    or of the record), so consuming a prefix of a large record touches
    only the pages the prefix spans, and a small record costs a single
    pool read. *)

type reader

val reader : Pager.t -> handle -> reader
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
