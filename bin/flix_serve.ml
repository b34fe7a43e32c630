(* flix_serve — stand up the concurrent FliX query service.

     dune exec bin/flix_serve.exe                       # 600-doc DBLP, port 7070
     dune exec bin/flix_serve.exe -- --docs 6210 --workers 8
     dune exec bin/flix_serve.exe -- --xml-dir /tmp/dblp --port 7071
     dune exec bin/flix_serve.exe -- --index-dir /var/flix  # persistent serving

   With --index-dir the service runs from a persistent Disk_hopi
   deployment: if the directory already holds one it is opened and the
   collection is never touched; otherwise the collection is indexed,
   saved there, and served from disk — so the next boot skips the
   build entirely.

   Then talk the line protocol, e.g.:

     $ nc 127.0.0.1 7070
     PING
     PONG
     DESCENDANTS dblp_0000 - author 5
     ITEM 12 1 0
     ...
     DONE 5
     METRICS
     LINES 123
     ... *)

module C = Fx_xml.Collection
module Flix = Fx_flix.Flix
module Server = Fx_server.Server
module Path_index = Fx_index.Path_index
module Hopi = Fx_index.Hopi
module Disk_hopi = Fx_index.Disk_hopi
module Catalog = Fx_index.Catalog
module Shard_plan = Fx_shard.Shard_plan
module Portal_closure = Fx_shard.Portal_closure
module Coordinator = Fx_shard.Coordinator

let usage () =
  print_endline
    "usage: flix_serve [--port N] [--host A] [--workers N] [--queue N]\n\
    \                  [--deadline-ms F] [--coord-cache N]\n\
    \                  [--docs N | --xml-dir DIR] [--seed N]\n\
    \                  [--index-dir DIR] [--pool-pages N]\n\
    \       flix_serve --build-shards N --index-dir DIR [--docs N | --xml-dir DIR]\n\
    \       flix_serve --coordinator --index-dir DIR --shard HOST:PORT [--shard ...]\n\
    \n\
    --coord-cache N sizes the EVALUATE answer cache (N >= 1 entries, default 256)\n\
    in every mode: in-memory, disk, and coordinator.";
  exit 1

type source = Generate of int | Xml_dir of string

let load_xml_dir dir =
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".xml")
  in
  if files = [] then failwith (Printf.sprintf "no .xml files in %s" dir);
  let docs =
    List.filter_map
      (fun f ->
        let path = Filename.concat dir f in
        let ic = open_in_bin path in
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let name = Filename.remove_extension f in
        match Fx_xml.Xml_parser.parse ~name body with
        | Ok d -> Some d
        | Error e ->
            Printf.eprintf "warning: skipped %s: %s\n" f
              (Fx_xml.Xml_parser.error_to_string e);
            None)
      files
  in
  C.build docs

let load_collection source seed =
  match source with
  | Generate n_docs ->
      Printf.printf "generating synthetic DBLP collection (%d docs, seed %d)...\n%!"
        n_docs seed;
      Fx_workload.Dblp_gen.collection
        { Fx_workload.Dblp_gen.default with n_docs; seed }
  | Xml_dir dir ->
      Printf.printf "loading XML documents from %s...\n%!" dir;
      load_xml_dir dir

let catalog_path prefix = prefix ^ ".catalog"

(* Boot, RELOAD and every shard server open a deployment here. A
   catalog saved from another collection than the label store would
   resolve names to nodes the store does not have, so the two must
   agree on the node and tag counts. *)
let open_deployment ~prefix ~pool_pages () =
  let catalog = Catalog.load (catalog_path prefix) in
  let disk = Disk_hopi.open_ ?pool_pages ~path:prefix () in
  if
    Catalog.n_nodes catalog <> Disk_hopi.n_nodes disk
    || Catalog.n_tags catalog <> Disk_hopi.n_tags disk
  then begin
    Disk_hopi.close disk;
    raise
      (Fx_util.Codec.Corrupt
         (Printf.sprintf
            "%s (%d nodes, %d tags) does not match %s.labels (%d nodes, %d tags); rebuild \
             the deployment into a fresh --index-dir"
            (catalog_path prefix) (Catalog.n_nodes catalog) (Catalog.n_tags catalog) prefix
            (Disk_hopi.n_nodes disk) (Disk_hopi.n_tags disk)))
  end;
  (disk, catalog)

(* Build a global HOPI over the collection and persist it (plus the
   serving catalog) under [dir], then reopen it as the disk backend. *)
let build_deployment ~dir ~prefix ~pool_pages source seed =
  let collection = load_collection source seed in
  Printf.printf "collection: %s\n%!" (C.stats collection);
  Printf.printf "building HOPI index...\n%!";
  let dg = { Path_index.graph = C.graph collection; tag = C.tag collection } in
  let hopi, build_ns = Fx_util.Stopwatch.time_ns (fun () -> Hopi.build dg) in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Disk_hopi.save ~path:prefix dg hopi;
  Catalog.save ~path:(catalog_path prefix) (Catalog.of_collection collection);
  Printf.printf "saved deployment to %s (indexed in %.2f s)\n%!" dir
    (Int64.to_float build_ns /. 1e9);
  open_deployment ~prefix ~pool_pages ()

let serve ~reload cfg backend =
  let server = Server.start_backend ~config:cfg ~reload backend in
  Printf.printf "EVALUATE answer cache: %d entries\n%!" cfg.Server.eval_cache_capacity;
  Printf.printf "serving on %s:%d (%d workers, queue %d, deadline %.0f ms)\n%!"
    cfg.Server.host (Server.port server) cfg.Server.workers cfg.Server.queue_capacity
    cfg.Server.deadline_ms;
  Printf.printf
    "verbs: PING | STATS | METRICS | DESCENDANTS | CONNECTED | EVALUATE | EPOCH | \
     INGEST | EVICT | RELOAD\n\
     %!";
  (* Serve until interrupted; the acceptor and workers do all the work.
     The main thread idles in short interruptible naps — a handler set
     on a thread parked in Condition.wait would never run. *)
  let quit = Atomic.make false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> Atomic.set quit true));
  while not (Atomic.get quit) do
    Thread.delay 0.2
  done;
  Printf.printf "\nshutting down...\n%!";
  Server.stop server;
  (* Every backend a RELOAD replaced was closed as its last request
     drained; close the one serving now. *)
  (Server.current_backend server).Server.close ()

let manifest_path dir = Filename.concat dir "manifest.shards"

(* Build one disk deployment per shard — each a plain --index-dir
   directory, DIR/shard<i>/index — plus the coordinator's manifest,
   which carries the portal closure. The shard HOPIs are still in
   memory when the closure needs its within-shard portal distances, so
   the closure build adds no probe traffic. *)
let build_shards ~dir ~n_shards source seed =
  let collection = load_collection source seed in
  Printf.printf "collection: %s\n%!" (C.stats collection);
  let plan = Shard_plan.plan ~n_shards collection in
  List.iter print_endline (Shard_plan.describe plan);
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let docs = Shard_plan.shard_documents plan collection in
  let hopis =
    Array.mapi
      (fun s doc_list ->
        let sub = C.build doc_list in
        let subdir = Filename.concat dir (Printf.sprintf "shard%d" s) in
        (try Unix.mkdir subdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let prefix = Filename.concat subdir "index" in
        let dg = { Path_index.graph = C.graph sub; tag = C.tag sub } in
        let hopi, build_ns = Fx_util.Stopwatch.time_ns (fun () -> Hopi.build dg) in
        Disk_hopi.save ~path:prefix dg hopi;
        Catalog.save ~path:(catalog_path prefix) (Catalog.of_collection sub);
        Printf.printf "shard %d: %s -> %s (indexed in %.2f s)\n%!" s (C.stats sub)
          subdir
          (Int64.to_float build_ns /. 1e9);
        hopi)
      docs
  in
  Printf.printf "building portal closure...\n%!";
  let closure =
    Portal_closure.build ~plan
      ~local_dist:(fun ~shard ~a ~b -> Hopi.distance hopis.(shard) a b)
  in
  Printf.printf "%s\n%!" (Portal_closure.describe closure);
  Portal_closure.save_manifest ~path:(manifest_path dir) ~plan closure;
  Printf.printf "wrote %d shard deployments and %s\n%!" (Array.length docs)
    (manifest_path dir);
  Printf.printf "serve each shard with: flix_serve --index-dir %s/shard<i>\n%!" dir

let serve_coordinator cfg ~dir ~shards =
  let plan, closure = Portal_closure.load_manifest (manifest_path dir) in
  List.iter print_endline (Shard_plan.describe plan);
  if List.length shards <> Shard_plan.n_shards plan then begin
    Printf.eprintf "flix_serve: plan wants %d shards, got %d --shard addresses\n"
      (Shard_plan.n_shards plan) (List.length shards);
    exit 1
  end;
  Printf.printf "%s\n%!" (Portal_closure.describe closure);
  let coord = Coordinator.create ~closure ~plan ~shards () in
  (* RELOAD builds the next coordinator from the serving one. Only the
     reload hook, serialized by the server's admin lock, touches
     [current]; the swap closes each replaced coordinator. *)
  let current = ref coord in
  let reload () =
    match Portal_closure.load_manifest (manifest_path dir) with
    | exception Fx_util.Codec.Corrupt msg -> Error ("corrupt shard manifest: " ^ msg)
    | exception Sys_error msg -> Error msg
    | plan, closure -> (
        match Coordinator.reload !current ~plan ~closure with
        | Error msg -> Error msg
        | Ok fresh ->
            current := fresh;
            Ok (Coordinator.backend fresh))
  in
  serve cfg ~reload (Coordinator.backend coord)

let serve_plain cfg source seed index_dir pool_pages =
  match index_dir with
  | Some dir -> (
      (* Persistent serving. A mangled or half-written store must come
         back as one diagnostic line, not an uncaught backtrace. *)
      let prefix = Filename.concat dir "index" in
      match
        if Sys.file_exists (catalog_path prefix) then begin
          Printf.printf "opening deployment %s...\n%!" prefix;
          open_deployment ~prefix ~pool_pages ()
        end
        else build_deployment ~dir ~prefix ~pool_pages source seed
      with
      | exception Fx_util.Codec.Corrupt msg ->
          Printf.eprintf "flix_serve: corrupt index store under %s: %s\n" dir msg;
          exit 1
      | exception Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "flix_serve: cannot use index dir %s: %s (%s %s)\n" dir
            (Unix.error_message err) fn arg;
          exit 1
      | exception Sys_error msg ->
          Printf.eprintf "flix_serve: cannot use index dir %s: %s\n" dir msg;
          exit 1
      | exception Invalid_argument msg ->
          Printf.eprintf "flix_serve: cannot use index dir %s: %s\n" dir msg;
          exit 1
      | disk, catalog ->
          Printf.printf "deployment: %d nodes, %d documents, %d tag names\n%!"
            (Catalog.n_nodes catalog) (Catalog.n_docs catalog) (Catalog.n_tags catalog);
          (* RELOAD reopens the deployment from disk; the replaced pager
             is closed only after its last pinned request drains. *)
          let reload () =
            match open_deployment ~prefix ~pool_pages () with
            | exception Fx_util.Codec.Corrupt msg -> Error ("corrupt index store: " ^ msg)
            | exception Unix.Unix_error (err, fn, arg) ->
                Error (Printf.sprintf "%s (%s %s)" (Unix.error_message err) fn arg)
            | exception Sys_error msg -> Error msg
            | hopi, catalog -> Ok (Server.disk ~hopi ~catalog)
          in
          serve cfg ~reload (Server.disk ~hopi:disk ~catalog))
  | None ->
      let collection = load_collection source seed in
      Printf.printf "collection: %s\n%!" (C.stats collection);
      Printf.printf "building FliX index...\n%!";
      let flix, build_s = Fx_util.Stopwatch.time_ns (fun () -> Flix.build collection) in
      Printf.printf "built in %.2f s (%.2f MB)\n%!"
        (Int64.to_float build_s /. 1e9)
        (float_of_int (Flix.index_size_bytes flix) /. 1048576.0);
      (* In-memory RELOAD rebuilds from the original source (useful when
         --xml-dir contents changed); INGEST/EVICT mutate the collection
         incrementally without it. *)
      let reload () =
        match Flix.build (load_collection source seed) with
        | exception (Failure msg | Sys_error msg) -> Error msg
        | exception Unix.Unix_error (err, fn, arg) ->
            Error (Printf.sprintf "%s (%s %s)" (Unix.error_message err) fn arg)
        | flix -> Ok (Server.memory flix)
      in
      serve cfg ~reload (Server.memory flix)

let parse_host_port s =
  match String.rindex_opt s ':' with
  | None -> failwith "expected HOST:PORT"
  | Some i ->
      let host = String.sub s 0 i in
      let port = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      ((if host = "" then "127.0.0.1" else host), port)

let () =
  let cfg = ref { Server.default_config with port = 7070 } in
  let source = ref (Generate 600) in
  let seed = ref 7 in
  let index_dir = ref None in
  let pool_pages = ref None in
  let build_n = ref None in
  let coordinator = ref false in
  let shard_addrs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--build-shards" :: v :: rest ->
        build_n := Some (int_of_string v);
        parse rest
    | "--coordinator" :: rest ->
        coordinator := true;
        parse rest
    | "--shard" :: v :: rest ->
        shard_addrs := parse_host_port v :: !shard_addrs;
        parse rest
    | "--coord-cache" :: v :: rest ->
        let n = int_of_string v in
        if n < 1 then begin
          Printf.eprintf "flix_serve: --coord-cache needs at least 1 entry, got %d\n" n;
          exit 1
        end;
        cfg := { !cfg with eval_cache_capacity = n };
        parse rest
    | "--port" :: v :: rest ->
        cfg := { !cfg with port = int_of_string v };
        parse rest
    | "--host" :: v :: rest ->
        cfg := { !cfg with host = v };
        parse rest
    | "--workers" :: v :: rest ->
        cfg := { !cfg with workers = int_of_string v };
        parse rest
    | "--queue" :: v :: rest ->
        cfg := { !cfg with queue_capacity = int_of_string v };
        parse rest
    | "--deadline-ms" :: v :: rest ->
        cfg := { !cfg with deadline_ms = float_of_string v };
        parse rest
    | "--docs" :: v :: rest ->
        source := Generate (int_of_string v);
        parse rest
    | "--xml-dir" :: v :: rest ->
        source := Xml_dir v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--index-dir" :: v :: rest ->
        index_dir := Some v;
        parse rest
    | "--pool-pages" :: v :: rest ->
        pool_pages := Some (int_of_string v);
        parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with
  | Failure _ -> usage ());
  match (!build_n, !coordinator, !index_dir) with
  | Some n, _, Some dir -> (
      (* Shard building: write the deployments and the manifest, then
         exit — each shard is served by its own flix_serve process. *)
      try build_shards ~dir ~n_shards:n !source !seed with
      | Invalid_argument msg | Sys_error msg ->
          Printf.eprintf "flix_serve: cannot build shards under %s: %s\n" dir msg;
          exit 1
      | Unix.Unix_error (err, fn, arg) ->
          Printf.eprintf "flix_serve: cannot build shards under %s: %s (%s %s)\n" dir
            (Unix.error_message err) fn arg;
          exit 1)
  | Some _, _, None ->
      Printf.eprintf "flix_serve: --build-shards needs --index-dir\n";
      exit 1
  | None, true, Some dir -> (
      match
        serve_coordinator !cfg ~dir ~shards:(List.rev !shard_addrs)
      with
      | () -> ()
      | exception Fx_util.Codec.Corrupt msg ->
          Printf.eprintf "flix_serve: corrupt shard manifest under %s: %s\n" dir msg;
          exit 1
      | exception Sys_error msg ->
          Printf.eprintf "flix_serve: cannot read shard manifest under %s: %s\n" dir msg;
          exit 1
      | exception Invalid_argument msg ->
          Printf.eprintf "flix_serve: bad coordinator setup: %s\n" msg;
          exit 1)
  | None, true, None ->
      Printf.eprintf "flix_serve: --coordinator needs --index-dir for the manifest\n";
      exit 1
  | None, false, _ -> serve_plain !cfg !source !seed !index_dir !pool_pages
