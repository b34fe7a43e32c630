(** FliX — the public facade.

    Typical use:
    {[
      let coll = Fx_xml.Collection.build documents in
      let flix = Flix.build ~config:Meta_builder.default_hybrid coll in
      Flix.descendants flix ~start ~tag:"article"
      |> Result_stream.take 10
      |> List.iter (fun r -> print_endline (Flix.describe flix r))
    ]}

    The facade binds together the build phase (Meta Document Builder →
    Indexing Strategy Selector → Index Builder) and the query phase
    (Path Expression Evaluator), resolving tag names and document
    anchors so callers never touch interned ids unless they want to. *)

type t

val build :
  ?config:Meta_builder.config ->
  ?policy:Strategy_selector.policy ->
  Fx_xml.Collection.t ->
  t
(** Default configuration: {!Meta_builder.default_hybrid} with the
    automatic strategy selector. *)

val collection : t -> Fx_xml.Collection.t

val extend : t -> Fx_xml.Xml_types.document list -> t
(** Incremental update: append documents to the collection and rebuild,
    reusing every meta-document index whose structure is unchanged —
    with document-granular configurations, adding documents only
    reindexes the new partitions. Raises like
    {!Fx_xml.Collection.build} on duplicate names. *)

val remove : t -> string list -> t
(** Drop documents by name and rebuild (dangling references into the
    removed documents are collected, not fatal, like any dead link).
    Unknown names are ignored; removing nothing returns [t] unchanged.
    Index reuse only covers the meta documents before the first removal
    point, since global node ids shift. *)

val rebuild : ?config:Meta_builder.config -> ?policy:Strategy_selector.policy -> t -> t
(** Re-run the build phase on the same collection — e.g. to apply a
    {!Self_tuning.recommendation} — reusing structurally unchanged
    indexes. *)

val registry : t -> Meta_document.registry
val built : t -> Index_builder.t
val pee : t -> Pee.t

(** {1 Queries}

    Queries take global node ids as start points; use {!node_of} or
    {!Fx_xml.Collection.find_by_tag} to obtain them. The optional [tag]
    is a tag {e name}; an unknown name yields an empty stream (not an
    error — heterogeneous collections routinely lack a tag). *)

val descendants :
  ?tag:string -> ?max_dist:int -> t -> start:int -> Pee.item Result_stream.t

val ancestors :
  ?tag:string -> ?max_dist:int -> t -> start:int -> Pee.item Result_stream.t

val descendants_exact :
  ?tag:string -> ?max_dist:int -> t -> start:int -> Pee.item Result_stream.t
(** {!descendants} with exact distance ordering; see
    {!Pee.descendants_exact}. *)

val evaluate :
  ?max_dist:int -> t -> start_tag:string -> target_tag:string -> Pee.item Result_stream.t
(** The [A//B] form over the whole collection: the starts are read in
    place from the collection's per-tag row, in document order. *)

val connected : ?max_dist:int -> t -> int -> int -> int option
val connected_bidir : ?max_dist:int -> t -> int -> int -> bool

val node_of : t -> doc:string -> anchor:string option -> int option
(** Root of [doc] when [anchor] is [None]. *)

val describe : t -> Pee.item -> string

(** {1 Introspection} *)

val index_size_bytes : t -> int
val report : t -> string
val true_distance : t -> int -> int -> int option
(** Ground-truth BFS distance on the full collection graph — for error
    rates and tests, not for serving queries. *)
