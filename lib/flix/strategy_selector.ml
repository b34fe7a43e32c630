module Traversal = Fx_graph.Traversal

type strategy =
  | PPO
  | HOPI of { partition_size : int }
  | APEX
  | TC

type policy =
  | Auto of { tc_threshold : int; hopi_partition_size : int }
  | Force of strategy
  | Custom of (Meta_document.t -> strategy)

let default_auto = Auto { tc_threshold = 64; hopi_partition_size = 5000 }

let strategy_to_string = function
  | PPO -> "PPO"
  | HOPI { partition_size } -> Printf.sprintf "HOPI(%d)" partition_size
  | APEX -> "APEX"
  | TC -> "TC"

let select policy (m : Meta_document.t) =
  match policy with
  | Force s -> s
  | Custom f -> f m
  | Auto { tc_threshold; hopi_partition_size } ->
      if Traversal.is_forest m.graph then PPO
      else if Meta_document.n_nodes m <= tc_threshold then TC
      else HOPI { partition_size = hopi_partition_size }

let estimate_closure_pairs ?(seed = 42) (m : Meta_document.t) =
  Fx_graph.Tc_estimate.closure_pairs (Fx_graph.Tc_estimate.compute ~seed m.graph)
