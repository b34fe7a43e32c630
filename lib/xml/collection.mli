(** The XML data model of the paper (Section 2.1): a collection
    [X = {d_1, ..., d_n}] is represented by the union graph
    [G_X = (V_X, E_X)] whose vertices are all elements of all documents
    and whose edges are the parent–child relations plus all intra- and
    inter-document links.

    Elements receive dense global node ids (documents in input order,
    preorder within a document), so every index works on plain integer
    graphs. *)

type link = { src : int; dst : int; inter : bool }
(** A resolved link edge between global nodes; [inter] is true when the
    endpoints belong to different documents. *)

type dangling = {
  src_doc : string;
  src_node : int;
  reference : string;  (** the unresolvable idref / href, verbatim *)
}

type t

val build : Xml_types.document list -> t
(** Builds [G_X]. Unresolvable references are collected (see
    {!dangling_refs}), not fatal — a Web collection always has dead
    links. Raises [Invalid_argument] on duplicate document names. *)

(** {1 Shape} *)

val n_nodes : t -> int
val n_docs : t -> int
val documents : t -> Xml_types.document list
(** The source documents, in collection order. *)

val graph : t -> Fx_graph.Digraph.t
(** Parent–child edges plus all link edges — the graph every connection
    index is built over. *)

val tree_graph : t -> Fx_graph.Digraph.t
(** Parent–child edges only. *)

val links : t -> link list
val n_intra_links : t -> int
val n_inter_links : t -> int
val dangling_refs : t -> dangling list

(** {1 Nodes} *)

val tag : t -> int array
(** Interned tag id per node. *)

val tag_id : t -> string -> int option
val tag_name : t -> int -> string
val n_tags : t -> int

val doc_of_node : t -> int -> int
val doc_name : t -> int -> string
val root_of_doc : t -> int -> int
val doc_of_name : t -> string -> int option

val element : t -> int -> Xml_types.element
(** The underlying element of a node (shared with the source document). *)

val node_of_anchor : t -> doc:string -> anchor:string -> int option
(** Global node carrying [id=anchor] in document [doc]. *)

val anchors : t -> ((string * string) * int) list
(** Every [(doc name, id)] anchor with its global node, in unspecified
    order — the serving catalog persists these so a disk-backed server
    can resolve [DESCENDANTS doc#anchor] without the collection. *)

val tag_slice : t -> string -> int array * int * int
(** [(nodes, lo, hi)]: the nodes with the given tag are
    [nodes.(lo) .. nodes.(hi - 1)], ascending. [nodes] is the per-tag
    node index that {!build} fills by counting sort, shared rather than
    copied — one hash lookup, independent of the collection size, and
    the caller must not write it. An unknown name yields an empty
    slice. *)

val find_by_tag : t -> string -> int list
(** {!tag_slice} as a fresh list: all nodes with the given tag,
    ascending, [] for an unknown name. *)

val text_of_node : t -> int -> string
(** Direct text content of the node's element. *)

val describe : t -> int -> string
(** ["docname:/tag[, key=value]"] — human-readable node identification
    for CLI and example output. *)

val stats : t -> string
(** One-line summary: documents / elements / links, as the paper reports
    for its DBLP extract. *)
