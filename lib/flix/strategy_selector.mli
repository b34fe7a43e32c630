(** The Indexing Strategy Selector (ISS): picks, for every meta document,
    the path indexing strategy to build (paper, Section 3.2: "selects,
    for each M_i of the meta documents, the optimal indexing strategy,
    based on structure, size and other properties").

    The automatic policy implements the paper's rule of thumb
    (Section 2.2): a link-free (forest) meta document takes PPO — the
    most efficient structure; tiny graphs can afford the materialised
    transitive closure; everything else takes HOPI, with APEX available
    by policy for shallow, summary-friendly graphs. The expected HOPI
    label size can be steered by Cohen's closure estimator (see
    {!Fx_graph.Tc_estimate}). *)

type strategy =
  | PPO
  | HOPI of { partition_size : int }
  | APEX
  | TC

type policy =
  | Auto of { tc_threshold : int; hopi_partition_size : int }
  | Force of strategy
  | Custom of (Meta_document.t -> strategy)

val default_auto : policy
(** [Auto { tc_threshold = 64; hopi_partition_size = 5000 }]. *)

val strategy_to_string : strategy -> string
val select : policy -> Meta_document.t -> strategy

val estimate_closure_pairs : ?seed:int -> Meta_document.t -> float
(** Estimated transitive-closure size of the meta document's graph —
    what an administrator would consult when configuring FliX by hand. *)
