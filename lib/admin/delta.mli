(** Cache-invalidation scope of an ingest delta.

    [All] — answers anywhere in the collection may have changed (links
    cross the old/new boundary, or documents were evicted and node ids
    shifted); every cached entry must go. [Tags ts] — only answers
    mentioning one of the tags [ts] can differ; everything else stays
    warm (see {!Eval_cache.swap}). *)

type scope = All | Tags of string list

val extend_scope : old_n_nodes:int -> Fx_xml.Collection.t -> scope
(** Exact scope of extending a collection that had [old_n_nodes] nodes
    to the merged collection [c]: [All] iff some link crosses the
    old/new node-id boundary (in either direction), else the tag names
    occurring in the new nodes. *)
