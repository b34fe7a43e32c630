type sample = { insertions : int; entry_drops : int; results : int }

type t = {
  pee : Pee.t;
  window : int;
  mutable samples : sample list; (* newest first, <= window *)
  mutable n_samples : int;
}

let create ?(window = 128) pee =
  if window < 1 then invalid_arg "Self_tuning.create: window < 1";
  { pee; window; samples = []; n_samples = 0 }

let record t sample =
  t.samples <- sample :: t.samples;
  t.n_samples <- t.n_samples + 1;
  if t.n_samples > t.window then begin
    (* Drop the oldest; the window is small, so the rebuild is cheap. *)
    t.samples <- List.filteri (fun i _ -> i < t.window) t.samples;
    t.n_samples <- t.window
  end

let descendants ?tag ?max_dist t ~start =
  let ins0, drops0 = Pee.queue_stats t.pee in
  let inner = Pee.descendants ?tag ?max_dist t.pee ~start in
  (* The sample is updated on every pull and committed on exhaustion;
     abandoning the stream leaves the last update in place, which the
     next flush picks up. *)
  let results = ref 0 in
  let committed = ref false in
  let commit () =
    if not !committed then begin
      committed := true;
      let ins1, drops1 = Pee.queue_stats t.pee in
      record t
        {
          insertions = ins1 - ins0;
          entry_drops = drops1 - drops0;
          results = !results;
        }
    end
  in
  Result_stream.of_fn (fun () ->
      match Result_stream.next inner with
      | Some item ->
          incr results;
          Some item
      | None ->
          commit ();
          None)

type summary = {
  queries : int;
  mean_results : float;
  mean_link_hops : float;
  mean_entry_drops : float;
  link_pressure : float;
}

let summary t =
  let n = t.n_samples in
  if n = 0 then
    { queries = 0; mean_results = 0.; mean_link_hops = 0.; mean_entry_drops = 0.;
      link_pressure = 0. }
  else begin
    let fi = float_of_int in
    let sum f = fi (List.fold_left (fun acc s -> acc + f s) 0 t.samples) in
    let results = sum (fun s -> s.results) in
    let hops = sum (fun s -> s.insertions) in
    {
      queries = n;
      mean_results = results /. fi n;
      mean_link_hops = hops /. fi n;
      mean_entry_drops = sum (fun s -> s.entry_drops) /. fi n;
      link_pressure = (if results = 0. then hops else hops /. results);
    }
  end

type recommendation = Keep | Rebuild of Meta_builder.config

let recommend ?(pressure_threshold = 2.0) t ~current =
  let s = summary t in
  if s.queries < 16 || s.link_pressure <= pressure_threshold then Keep
  else
    Rebuild
      (match (current : Meta_builder.config) with
      | Meta_builder.Naive -> Meta_builder.Unconnected_hopi { max_size = 5000 }
      | Meta_builder.Maximal_ppo ->
          Meta_builder.Hybrid { max_size = 5000; min_tree_size = 50 }
      | Meta_builder.Unconnected_hopi { max_size } ->
          Meta_builder.Unconnected_hopi { max_size = 2 * max_size }
      | Meta_builder.Hybrid { max_size; min_tree_size } ->
          Meta_builder.Hybrid { max_size = 2 * max_size; min_tree_size }
      | Meta_builder.Element_level { max_size } ->
          Meta_builder.Element_level { max_size = 2 * max_size }
      | Meta_builder.Spanning_ppo ->
          Meta_builder.Hybrid { max_size = 5000; min_tree_size = 50 })
