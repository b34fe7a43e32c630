(** The weighted portal graph of a shard plan: nodes are the cross-link
    endpoints (portals) plus every document root as an anchor; edges
    are the cross links at weight 1 and, per shard, a segment edge from
    each source node (entry portal or anchor) to each exit portal of
    the same shard, weighted by the shard-local shortest-path distance.

    Graph distance between two of its nodes equals their exact global
    distance — every global path is within-shard segments joined by
    unit link hops — which is what makes a distance oracle over this
    graph ({!Portal_closure}) exact. Anchors carry only outgoing edges:
    they let root-anchored queries skip even their exit probes. *)

type t

val build :
  plan:Shard_plan.t ->
  local_dist:(shard:int -> a:int -> b:int -> int option) ->
  t
(** [local_dist ~shard ~a ~b] answers the within-shard shortest-path
    distance between two shard-local node ids, [None] when unreachable
    — typically {!Fx_index.Hopi.distance} over the shard's own index,
    so the edge weights agree exactly with what the shard servers
    answer at query time. *)

val n_nodes : t -> int

val nodes : t -> int array
(** Global node ids of the graph's nodes, ascending. *)

val edges : t -> (int * int * int) array
(** [(from index, to index, weight)] triples, deduplicated (smallest
    weight wins), in deterministic order. *)

val index_of : t -> int -> int option
(** Node index of a global id, [None] when the id is not a portal or
    anchor. *)
