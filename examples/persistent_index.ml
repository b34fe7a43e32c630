(* Persistent indexes: build once, write to disk, reopen and serve
   queries without rebuilding — the database-backed deployment of the
   paper (whose indexes lived in Oracle tables), on our own pager and
   heap file.

     dune exec examples/persistent_index.exe *)

module C = Fx_xml.Collection
module Pi = Fx_index.Path_index
module Dblp = Fx_workload.Dblp_gen
module Qg = Fx_workload.Query_gen

let () =
  let dir = Filename.temp_file "flix_demo" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "dblp" in

  (* Build phase: collection -> HOPI -> disk. *)
  let collection = Dblp.collection { Dblp.default with n_docs = 800 } in
  print_endline ("collection: " ^ C.stats collection);
  let dg = { Pi.graph = C.graph collection; tag = C.tag collection } in
  let hopi = Fx_index.Hopi.build dg in
  Printf.printf "in-memory HOPI: %d label entries (%.2f MB)\n"
    (Fx_index.Hopi.entries hopi)
    (float_of_int (Fx_index.Hopi.size_bytes hopi) /. 1048576.0);
  Fx_index.Disk_hopi.save ~path dg hopi;
  let on_disk p = float_of_int (Unix.stat p).Unix.st_size /. 1048576.0 in
  Printf.printf "written: %s.labels (%.2f MB: labels, hop runs, tag directory)\n" path
    (on_disk (path ^ ".labels"));

  (* A "new process": open the files, no rebuild. *)
  let disk = Fx_index.Disk_hopi.open_ ~pool_pages:512 ~path () in
  let hub = Qg.hub_query collection ~tag:"article" in
  Printf.printf "\nquery %s from disk:\n" hub.label;
  let results =
    Fx_index.Disk_hopi.descendants_by_tag disk hub.start (C.tag_id collection "article")
  in
  List.iteri
    (fun i (node, dist) ->
      if i < 5 then
        Printf.printf "  %s at distance %d\n" (C.describe collection node) dist)
    results;
  Printf.printf "  ... %d results in total\n" (List.length results);
  let stats = Fx_index.Disk_hopi.stats disk in
  Printf.printf "buffer pool: %d page reads (%d from disk)\n"
    stats.Fx_store.Pager.logical_reads stats.Fx_store.Pager.physical_reads;

  (* The serialized in-memory snapshot is the lighter-weight alternative
     when the whole index fits in RAM: one blob, loaded in one go. *)
  let blob = Fx_index.Two_hop.serialize (Fx_index.Hopi.labels hopi) in
  let snapshot = Filename.concat dir "labels.bin" in
  let oc = open_out_bin snapshot in
  output_string oc blob;
  close_out oc;
  let ic = open_in_bin snapshot in
  let loaded = Fx_index.Two_hop.deserialize (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Printf.printf "\nsnapshot: %.2f MB blob reloaded, spot check: %b\n"
    (float_of_int (String.length blob) /. 1048576.0)
    (Fx_index.Two_hop.distance loaded hub.start (List.hd results |> fst)
    = Fx_index.Disk_hopi.distance disk hub.start (List.hd results |> fst));

  Fx_index.Disk_hopi.close disk;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Array.to_list (Sys.readdir dir));
  Sys.rmdir dir
