(** The Index Builder (IB): builds one path index per meta document with
    the strategy chosen by the ISS, and keeps the per-meta-document link
    sets [L_i] (paper, Section 4.2).

    A PPO selection can fail if the selector was forced onto a non-forest
    meta document; the builder then falls back to HOPI and records the
    fallback, mirroring the paper's constraint that "certain algorithms
    to build meta documents may rule out the usage of some index
    strategies". *)

type impl = Ppo_tree of Fx_index.Ppo.t | Opaque
(** The concrete structure behind [index], when the builder keeps it
    around for incremental maintenance ({!Fx_index.Ppo.extend}). *)

type links
(** A meta document's link set [L(a)], one direction of it: the link
    nodes below (or above) a local node [a], with their distances from
    it. On a PPO meta document the forward set is every node's row of
    [L_i], laid out once ({!Fx_index.Ppo.link_rows}), and the backward
    set a walk up the parent chain ({!Fx_index.Ppo.iter_ancestors_in});
    HOPI, TC and APEX keep the index's staged
    [restricted_descendants]/[restricted_ancestors] lookup. *)

val iter_links : links -> int -> (link:int -> dist:int -> bool) -> unit
(** [iter_links links a f] calls [f ~link ~dist] on [L(a)] in
    (distance, node) order until [f] returns [false]. On a PPO meta
    document it sorts nothing and allocates no list. *)

type built = {
  meta : Meta_document.t;
  strategy : Strategy_selector.strategy;  (** what was actually built *)
  index : Fx_index.Path_index.instance;
  fallback : bool;  (** true when the requested strategy was unusable *)
  impl : impl;
  out_links : links;
      (** [L(a)] over [meta.link_nodes], the nodes whose outgoing links
          the index does not reflect. *)
  in_links : links;  (** The same over [meta.in_link_nodes], for ancestor queries. *)
}
(** Both link sets are staged whenever a record is made: at build,
    after {!Fx_index.Ppo.extend}, and when a reused index is rebound to
    a new meta document, whose link sets may differ from the old one's.
    A rebound PPO record whose [link_nodes] equal the old record's
    shares the old rows; they are immutable. *)

type t = {
  registry : Meta_document.registry;
  indexes : built array;  (** indexed by meta-document id *)
  build_ns : int64;       (** accumulated wall-clock build time *)
  reused : int;           (** indexes taken over from a previous build *)
  extended : int;         (** indexes delta-extended in place *)
}

val build :
  ?policy:Strategy_selector.policy -> ?reuse:t -> ?jobs:int -> Meta_document.registry -> t
(** [reuse] enables incremental rebuilds: a meta document of the new
    registry whose node set, internal edges and tags are identical to
    one in the previous build keeps that build's index instead of
    reindexing. With document-granular configurations, adding documents
    to a collection leaves the untouched meta documents' digests stable,
    so only new or newly-linked-into partitions pay the build cost (see
    {!Flix.extend}). Matching is by structural digest, so it is safe
    under partition renumbering.

    [jobs] (default 1) builds that many meta-document indexes in
    parallel on OCaml 5 domains — meta documents are independent, so
    the speed-up is near-linear until memory bandwidth wins. *)

val reused_count : t -> int
(** How many meta-document indexes were taken over from [reuse]. *)

val extended_count : t -> int
(** How many meta-document indexes were produced by per-index delta
    application ({!Fx_index.Ppo.extend}) instead of a full rebuild: the
    meta document grew by appended subtrees and only the appended part
    was traversed. Together with {!reused_count} this is the build
    counter showing a meta-document-local delta did not rebuild
    untouched indexes. *)

val total_size_bytes : t -> int
val total_entries : t -> int
val strategy_histogram : t -> (string * int) list
(** How many meta documents each strategy indexes, descending count. *)

val report : t -> string
(** Multi-line build report: strategies, sizes, link counts, and a
    [link rows: <pairs> pairs, <MB> MB] line for the staged PPO rows.
    {!total_size_bytes} does not count the rows: it is the paper's
    index-size measure (Table 1). *)
