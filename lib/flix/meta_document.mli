(** Meta documents — FliX's unit of indexing.

    A meta document holds a distinct subset of the collection's elements
    (in this implementation: a union of whole documents), the subgraph
    induced by tree edges plus the {e included} links, and the remaining
    outgoing links that are {e not} reflected in its index. The paper
    (Section 3.1): "each meta document contains some or all of the links
    between its documents. Additionally, FliX maintains the set of
    remaining inter- or intra-document links that are not contained in
    any meta document."

    Nodes inside a meta document are renumbered to dense local ids; the
    registry maps between local and global ids. *)

type t = {
  id : int;
  nodes : int array;                   (** global node ids, ascending *)
  graph : Fx_graph.Digraph.t;          (** local: tree edges + included links *)
  tag : int array;                     (** local, collection tag ids *)
  out_links : int list array;          (** local node -> global link targets *)
  link_nodes : Fx_graph.Bitset.t;      (** local nodes with outgoing links — the set [L_i] *)
  in_links : int list array;           (** local node -> global link sources *)
  in_link_nodes : Fx_graph.Bitset.t;   (** local link-target nodes, for ancestor queries *)
}

val n_nodes : t -> int
val global_of_local : t -> int -> int
val data_graph : t -> Fx_index.Path_index.data_graph
val n_out_links : t -> int

type registry = {
  metas : t array;
  meta_of_node : int array;   (** global node -> meta document id *)
  local_of_node : int array;  (** global node -> local id inside its meta *)
  reach : Fx_graph.Reach_filter.t;
      (** document-level reachability filter over the collection: one
          group per document, one edge per inter-document link. A pair it
          rules out has no path in {!Fx_xml.Collection.graph}. *)
}

val build_registry :
  Fx_xml.Collection.t ->
  part:int array ->
  n_parts:int ->
  include_link:(Fx_xml.Collection.link -> bool) ->
  registry
(** Splits the collection along the per-node partition [part]. Tree edges
    are always internal (a partition never splits a document). A link
    becomes an internal edge when both endpoints share a partition {e
    and} [include_link] accepts it; otherwise it is kept as an out-link
    to be followed at query time. The registry also carries the
    collection's document-level reachability filter, so every rebuild
    ([Flix.extend], [Flix.remove], ...) rebuilds it with the snapshot. *)

val total_out_links : registry -> int
val find : registry -> int -> t * int
(** [find reg v] is the meta document of global node [v] and [v]'s local
    id in it. *)
