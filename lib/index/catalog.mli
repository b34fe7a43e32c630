(** The serving catalog of a disk deployment: the name-resolution side
    of the collection — tag names, document roots, anchor ids — frozen
    to one flat [<path>.catalog] file at {!Disk_hopi.save} time, so a
    query server booted from [--index-dir] can answer
    [DESCENDANTS doc#anchor tag] without re-parsing any XML.

    A loaded catalog is immutable and safe to share across worker
    domains. *)

type t

val of_collection : Fx_xml.Collection.t -> t

val save : path:string -> t -> unit
(** Raises [Sys_error] on I/O failure. *)

val load : string -> t
(** @raise Fx_util.Codec.Corrupt on a mangled or truncated catalog
    (bad magic, negative counts, node ids out of range, trailing
    bytes). @raise Sys_error if the file cannot be read. *)

val n_nodes : t -> int
val n_docs : t -> int
val n_tags : t -> int

val tag_id : t -> string -> int option

val node_of : t -> doc:string -> anchor:string option -> int option
(** Global node of [doc]'s root, or of the element carrying
    [id=anchor] when [anchor] is given. *)
