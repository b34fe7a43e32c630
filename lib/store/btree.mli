(** A disk-resident B+-tree over a {!Pager} file: 62-bit integer keys,
    integer values, range scans over the leaf chain.

    This is the ordered-index substrate a database-backed FliX needs
    beyond plain label records: the disk deployment stores its
    tag directory as [(tag << 32) | node] keys, so
    "all nodes with tag w" is one range scan — the same trick the
    paper's Oracle schema plays with a composite-key table.

    Keys are unique; {!insert} overwrites. All structural invariants
    (sorted keys, balanced height, linked leaves) are maintained on
    every insert; the property tests in [test_store.ml] check the tree
    against a [Map] oracle including across close/reopen. Not
    crash-safe — like the label store, it is a rebuildable snapshot. *)

type t

val create : Pager.t -> t
(** Open the tree stored in the pager's file, or initialise an empty
    one in a fresh file.
    @raise Fx_util.Codec.Corrupt if the file is not a B+-tree. *)

val insert : t -> key:int -> value:int -> unit
(** Insert or overwrite. Keys must fit 62 bits ([0 <= key < 2^62]). *)

val bulk_load : Pager.t -> (int * int) array -> t
(** Build a tree in a fresh (empty) file from entries strictly
    ascending by key, packing the leaves full — a write-once index
    built in one pass instead of one {!insert} per entry. The result
    is an ordinary tree: it reopens with {!create} and accepts later
    inserts. Raises [Invalid_argument] on a non-empty file, a negative
    key, or keys out of order. *)

val find : t -> int -> int option

val range : t -> lo:int -> hi:int -> (int * int) list
(** All (key, value) with [lo <= key <= hi], ascending. *)

val iter_range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** Streaming variant of {!range}. *)

val length : t -> int
val height : t -> int
(** Root-to-leaf page count; 1 for a leaf-only tree. *)
