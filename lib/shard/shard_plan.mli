(** The shard planner: cut a collection into N shards along
    meta-document boundaries, and the manifest a coordinator needs to
    stitch the shards back into one logical service.

    Shards reuse the paper's distribution unit. The Meta Document
    Builder partitions the collection into meta documents that can be
    indexed independently, with the remaining inter-meta-document links
    followed at query time (PAPER.md §3–4); the planner assigns whole
    meta documents to shards — a meta document is never split — so
    every link the coordinator must chase at query time is a link the
    framework would have chased anyway. Document granularity is
    preserved: each shard is a sub-collection whose documents keep
    their relative collection order, so shard-local node ids are
    assigned by the same rule as global ids (documents in order,
    preorder within a document) and the manifest can translate between
    the two id spaces with nothing but per-document base offsets.

    The manifest records, per shard, the ordered documents with their
    global id ranges, plus every cross-shard link with the tag name of
    its target — tag ids are interned per shard catalog, so names are
    the only portable currency. *)

type cross_link = {
  src : int;  (** global node id of the link source *)
  dst : int;  (** global node id of the link target *)
  dst_tag : string;  (** tag name of the target node *)
}

type t

(** {1 Planning} *)

val plan : ?config:Fx_flix.Meta_builder.config -> n_shards:int -> Fx_xml.Collection.t -> t
(** Partition the collection's meta documents (built with [config],
    default {!Fx_flix.Meta_builder.default_hybrid}) into at most
    [n_shards] shards by longest-processing-time bin packing on element
    counts. The effective shard count (see {!n_shards}) can be lower
    when there are fewer meta documents than requested shards; it is
    never zero for a non-empty collection. Raises [Invalid_argument]
    for [n_shards < 1], for an empty collection, and for the
    [Element_level] builder (its partitions split documents). *)

val shard_documents : t -> Fx_xml.Collection.t -> Fx_xml.Xml_types.document list array
(** Per shard, the source documents (in collection order) from which to
    build that shard's sub-collection. Cross-shard links dangle in the
    sub-collection — {!Fx_xml.Collection.build} collects dangling
    references instead of failing — which is exactly what makes the
    shard independently indexable. Raises [Invalid_argument] when the
    collection does not match the plan. *)

(** {1 Shape} *)

val n_shards : t -> int
val total_nodes : t -> int
val cross_links : t -> cross_link array
(** All cross-shard links, in unspecified order. *)

val shard_n_docs : t -> int -> int
val shard_n_nodes : t -> int -> int

(** {1 Id translation} *)

val locate : t -> int -> int * int
(** [locate t g] is [(shard, local)] for global node [g]. Raises
    [Invalid_argument] when [g] is outside the plan. *)

val global_of : t -> shard:int -> local:int -> int
(** Inverse of {!locate}. Raises [Invalid_argument] out of range. *)

val doc_root : t -> string -> (int * int) option
(** [(shard, root)] of the named document: the shard holding it and
    the global id of its root. One hash lookup. *)

val shard_of_doc : t -> string -> int option
(** The shard holding the named document. *)

val doc_roots : t -> int array
(** Global node id of every document root, ascending — the anchor set
    the portal closure precomputes portal-entry distances for. *)

val digest : t -> int
(** Deterministic non-negative content digest over everything the
    manifest records (shards, documents, cross links). The portal
    closure stamps this as its epoch: a closure whose epoch does not
    match the plan it is loaded with must not be joined against it. *)

(** {1 Persistence} *)

val write_body : Fx_util.Codec.Writer.t -> t -> unit
val read_body : Fx_util.Codec.Reader.t -> t
(** The plan half of the shard manifest, without file framing:
    {!Portal_closure.save_manifest} and {!Portal_closure.load_manifest}
    wrap it, with the closure, in the [FXSHARDMAN2] file. [read_body]
    validates the plan but does not require end-of-input.
    @raise Fx_util.Codec.Corrupt on a mangled body. *)

val describe : t -> string list
(** Human-readable summary lines for STATS. *)
