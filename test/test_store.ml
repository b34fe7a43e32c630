(* Tests for the storage substrate: the sequential heap writer, the
   read-only pager with its striped LRU buffer pool, and the heap
   reads, including reopen and corrupt-input handling. *)

module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_file f =
  let path = Filename.temp_file "fxstore" ".pg" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let write_heap ~page_size path records =
  Heap.write_file ~page_size path (fun add -> List.map add records)

(* One record per data page: its 4-byte length prefix, then [fill i]
   up to the page end, so page [i] reads [fill i] from offset 4. *)
let write_filled_pages ~page_size path n fill =
  ignore (write_heap ~page_size path (List.init n (fun i -> String.make (page_size - 4) (fill i))))

let with_pager ?pool_pages ?stripes path f =
  let p = Pager.open_ ?pool_pages ?stripes path in
  Fun.protect ~finally:(fun () -> Pager.close p) (fun () -> f p)

let file_length path = (Unix.stat path).Unix.st_size

(* Overwrite [bytes] at byte [pos] of [path], behind any reader's back. *)
let poke path pos bytes =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd pos Unix.SEEK_SET);
      ignore (Unix.write fd bytes 0 (Bytes.length bytes)))

(* --- pager --------------------------------------------------------------- *)

let test_pager_basic () =
  with_temp_file (fun path ->
      ignore (write_heap ~page_size:128 path []);
      with_pager path (fun p ->
          check_int "no pages" 0 (Pager.n_pages p);
          check "no root" true (Pager.root p = None));
      ignore (write_heap ~page_size:128 path [ "hello" ]);
      with_pager path (fun p ->
          check_int "one page" 1 (Pager.n_pages p);
          check_int "page size from the header" 128 (Pager.page_size p);
          check "root" true (Pager.root p = Some 0);
          check_str "readback" "hello"
            (Bytes.to_string (Pager.read p ~page:0 ~offset:4 ~len:5))))

let test_pager_persistence () =
  with_temp_file (fun path ->
      write_filled_pages ~page_size:128 path 2 (fun i -> "ab".[i]);
      for _ = 1 to 2 do
        with_pager path (fun p ->
            check_int "pages recovered" 2 (Pager.n_pages p);
            check "root is the second record" true (Pager.root p = Some 128);
            check_str "a persisted" "aaaa"
              (Bytes.to_string (Pager.read p ~page:0 ~offset:4 ~len:4));
            check_str "b persisted" "bbbb"
              (Bytes.to_string (Pager.read p ~page:1 ~offset:64 ~len:4)))
      done)

let test_pager_pool_eviction () =
  with_temp_file (fun path ->
      (* Pool of 2 pages in a single stripe: touching 3 pages in
         rotation must evict. (One stripe so all three pages share one
         LRU segment — otherwise each page gets its own stripe and
         nothing evicts.) *)
      write_filled_pages ~page_size:128 path 3 (fun i -> Char.chr (48 + i));
      with_pager ~pool_pages:2 ~stripes:1 path (fun p ->
          for round = 1 to 2 do
            for pg = 0 to 2 do
              check_str "value survives eviction"
                (String.make 2 (Char.chr (48 + pg)))
                (Bytes.to_string (Pager.read p ~page:pg ~offset:4 ~len:2))
            done;
            let s = Pager.stats p in
            check_int "every rotated read misses" (3 * round) s.physical_reads;
            check_int "logical reads" (3 * round) s.logical_reads;
            check "stripe within capacity" true
              (List.for_all
                 (fun (st : Pager.stripe_stats) -> st.resident_pages <= st.capacity_pages)
                 (Pager.stripe_stats p))
          done))

let test_pager_cold_vs_warm () =
  with_temp_file (fun path ->
      ignore (write_heap ~page_size:128 path [ "x" ]);
      with_pager path (fun p ->
          ignore (Pager.read p ~page:0 ~offset:4 ~len:1);
          Pager.drop_pool p;
          Pager.reset_stats p;
          ignore (Pager.read p ~page:0 ~offset:4 ~len:1);
          check_int "cold miss" 1 (Pager.stats p).physical_reads;
          ignore (Pager.read p ~page:0 ~offset:4 ~len:1);
          check_int "warm hit" 1 (Pager.stats p).physical_reads;
          check_int "two logical" 2 (Pager.stats p).logical_reads))

let test_pager_bounds () =
  with_temp_file (fun path ->
      ignore (write_heap ~page_size:128 path [ "x" ]);
      with_pager path (fun p ->
          Alcotest.check_raises "offset overflow"
            (Invalid_argument "Pager.read: out of page bounds") (fun () ->
              ignore (Pager.read p ~page:0 ~offset:120 ~len:10));
          Alcotest.check_raises "page out of range" (Invalid_argument "Pager: page out of range")
            (fun () -> ignore (Pager.read p ~page:7 ~offset:0 ~len:1));
          Alcotest.check_raises "negative page" (Invalid_argument "Pager: page out of range")
            (fun () -> ignore (Pager.read p ~page:(-1) ~offset:0 ~len:1))))

(* A header whose page size does not divide the file is refused. *)
let test_pager_rejects_mismatch () =
  with_temp_file (fun path ->
      write_filled_pages ~page_size:128 path 2 (fun _ -> 'm');
      check_int "header + 2 pages" 384 (file_length path);
      poke path 0 (Pager.header ~page_size:256 ~root:(Some 0));
      match Pager.open_ path with
      | exception Invalid_argument _ -> ()
      | p ->
          Pager.close p;
          Alcotest.fail "page-size mismatch accepted")

let test_pager_rejects_garbage () =
  with_temp_file (fun path ->
      let expect_refused what contents =
        Out_channel.with_open_bin path (fun oc -> output_string oc contents);
        match Pager.open_ path with
        | exception Invalid_argument _ -> ()
        | p ->
            Pager.close p;
            Alcotest.failf "%s accepted" what
      in
      expect_refused "garbage" (String.make 128 'z');
      expect_refused "an empty file" "";
      expect_refused "a short page size" ("FXPG1\n32\n" ^ String.make 54 '\000');
      expect_refused "a mangled root"
        ("FXPG1\n64\nroot x\n" ^ String.make 48 '\000' ^ String.make 64 'd');
      expect_refused "a negative root"
        ("FXPG1\n64\nroot -4\n" ^ String.make 47 '\000' ^ String.make 64 'd'))

(* The writer's descriptor dies on every path: a header write failing
   with ENOSPC (/dev/full) must leave no descriptor behind. The writer
   is called directly — a store's save unlinks its target first. *)
let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_pager_create_fd_leak () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then ()
  else begin
    let before = count_fds () in
    (match Heap.write_file ~page_size:128 "/dev/full" (fun add -> add "lost") with
    | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ()
    | _ -> Alcotest.fail "header write to /dev/full succeeded");
    check_int "no descriptor leaked" before (count_fds ());
    (* A callback that raises closes the descriptor too. *)
    with_temp_file (fun path ->
        (match Heap.write_file ~page_size:128 path (fun add -> add "") with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "empty record accepted");
        check_int "no descriptor leaked by a raising callback" before (count_fds ()))
  end

(* The writer and the pager must absorb EINTR: a 1 kHz interval timer
   peppers the process with SIGALRM while heaps are written and then
   read through a pool far smaller than the working set, so writes,
   fsyncs and page reads all run with signals landing mid-syscall.
   Without the retry loops this surfaces as Unix_error (EINTR, _, _). *)
let test_pager_eintr () =
  with_temp_file (fun path ->
      let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
      let set_timer v =
        ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
      in
      Fun.protect
        ~finally:(fun () ->
          (* Stop the timer BEFORE restoring the disposition: a pending
             alarm under the default action would kill the process. *)
          set_timer 0.0;
          Sys.set_signal Sys.sigalrm previous)
        (fun () ->
          set_timer 0.001;
          let page_size = 512 in
          for round = 0 to 4 do
            let records =
              List.init 400 (fun i ->
                  String.make (1 + (i * 131 mod 1500)) (Char.chr (33 + ((i + round) mod 94))))
            in
            let handles = write_heap ~page_size path records in
            with_pager ~pool_pages:2 ~stripes:1 path (fun p ->
                for r = 0 to 1 do
                  List.iteri
                    (fun i (record, h) ->
                      if (i + r) mod 3 = 0 && Heap.read p h <> record then
                        Alcotest.failf "bad readback of record %d in round %d" i round)
                    (List.combine records handles)
                done)
          done))

(* Hostile offsets and lengths must be rejected up front — including
   max_int / min_int values that would wrap [offset + len]. *)
let test_pager_hostile_bounds () =
  with_temp_file (fun path ->
      ignore (write_heap ~page_size:128 path [ "x" ]);
      with_pager path (fun p ->
          let pg = 0 in
          let expect_invalid name f =
            match f () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail (name ^ ": accepted")
          in
          expect_invalid "read offset past page_size" (fun () ->
              ignore (Pager.read p ~page:pg ~offset:129 ~len:0));
          expect_invalid "negative read offset" (fun () ->
              ignore (Pager.read p ~page:pg ~offset:(-1) ~len:1));
          expect_invalid "read offset max_int" (fun () ->
              ignore (Pager.read p ~page:pg ~offset:max_int ~len:1));
          expect_invalid "read len max_int" (fun () ->
              ignore (Pager.read p ~page:pg ~offset:1 ~len:max_int));
          expect_invalid "read min_int bounds" (fun () ->
              ignore (Pager.read p ~page:pg ~offset:min_int ~len:min_int));
          (* The legal degenerate case: a zero-length read at the page end. *)
          check_int "empty read at page end" 0
            (Bytes.length (Pager.read p ~page:pg ~offset:128 ~len:0));
          (* Randomised sweep: every (offset, len) pair is either rejected
             with Invalid_argument or lands fully inside the page. *)
          let rng = Fx_util.Rng.create 42 in
          let interesting = [| min_int; -1; 0; 1; 64; 127; 128; 129; 4096; max_int |] in
          let pick () =
            if Fx_util.Rng.int rng 2 = 0 then
              interesting.(Fx_util.Rng.int rng (Array.length interesting))
            else Fx_util.Rng.int rng 300 - 150
          in
          for _ = 1 to 500 do
            let offset = pick () and len = pick () in
            match Pager.read p ~page:pg ~offset ~len with
            | b ->
                check "accepted read is in bounds" true
                  (offset >= 0 && len >= 0 && offset + len <= 128 && Bytes.length b = len)
            | exception Invalid_argument _ -> ()
          done))

(* Striped-pool stress: 4 domains re-read a fixed working set through 8
   stripes, then the counters must cohere — the aggregate equals the
   per-stripe sum, the logical count is exactly one per [Pager.read]
   call, and no stripe ends over capacity. *)
let test_pager_striped_stress () =
  with_temp_file (fun path ->
      let page_size = 128 and n_domains = 4 and n_pages = 64 and rounds = 50 in
      let fill pg = Char.chr (33 + (pg mod 94)) in
      write_filled_pages ~page_size path n_pages fill;
      with_pager ~pool_pages:16 ~stripes:8 path (fun p ->
          let work () =
            for _ = 1 to rounds do
              for pg = 0 to n_pages - 1 do
                let b = Pager.read p ~page:pg ~offset:4 ~len:(page_size - 4) in
                if not (Bytes.for_all (fun c -> c = fill pg) b) then
                  failwith (Printf.sprintf "bad bytes on page %d" pg)
              done
            done
          in
          let domains = List.init n_domains (fun _ -> Domain.spawn work) in
          List.iter Domain.join domains;
          let s = Pager.stats p in
          check_int "logical reads are exact" (n_domains * rounds * n_pages) s.logical_reads;
          let per_stripe = Pager.stripe_stats p in
          check_int "eight stripes" 8 (List.length per_stripe);
          check_int "stripe sum = aggregate" s.logical_reads
            (List.fold_left
               (fun acc (st : Pager.stripe_stats) -> acc + st.stripe_logical_reads)
               0 per_stripe);
          List.iter
            (fun (st : Pager.stripe_stats) ->
              check "stripe within capacity" true (st.resident_pages <= st.capacity_pages);
              check "stripe counted its locking" true (st.lock_acquisitions > 0))
            per_stripe))

(* --- heap file -------------------------------------------------------------- *)

let test_heap_roundtrip () =
  with_temp_file (fun path ->
      let records = [ "alpha"; String.make 500 'b'; "gamma"; String.make 1000 'd' ] in
      let handles = write_heap ~page_size:128 path records in
      check "handles follow the framing" true (handles = [ 0; 9; 513; 522 ]);
      with_pager path (fun p ->
          List.iter2 (fun r hd -> check_str "roundtrip" r (Heap.read p hd)) records handles))

(* Records written in one sequential pass land where their handles say,
   and a windowed reader walks records that span pages byte for byte. *)
let test_heap_batch_and_reader () =
  with_temp_file (fun path ->
      let records =
        List.init 40 (fun i ->
            String.init (1 + (i * 37 mod 300)) (fun j -> Char.chr (97 + ((i + j) mod 26))))
      in
      let handles = write_heap ~page_size:128 path records in
      with_pager path (fun p ->
          List.iter2 (fun r hd -> check_str "written record" r (Heap.read p hd)) records handles;
          check "last handle is the last record" true
            (Heap.last_handle p = Some (List.nth handles 39));
          List.iter2
            (fun r hd ->
              let rd = Heap.reader p hd in
              check_int "reader length" (String.length r) (Heap.reader_length rd);
              let got = String.init (String.length r) (fun _ -> Char.chr (Heap.byte rd)) in
              check_str "reader bytes" r got;
              check "read past the end raises" true
                (match Heap.byte rd with
                | _ -> false
                | exception Fx_util.Codec.Corrupt _ -> true);
              let off = String.length r / 2 in
              let fk = Heap.fork rd off in
              check_int "fork offset" off (Heap.offset fk);
              if off < String.length r then
                check_int "fork byte" (Char.code r.[off]) (Heap.byte fk))
            records handles))

let test_heap_reopen () =
  with_temp_file (fun path ->
      let handles = write_heap ~page_size:128 path [ "first"; String.make 300 'x' ] in
      let h1 = List.nth handles 0 and h2 = List.nth handles 1 in
      for _ = 1 to 2 do
        with_pager path (fun p ->
            check "last handle from the header" true (Heap.last_handle p = Some h2);
            check_int "last handle costs no page read" 0 (Pager.stats p).logical_reads;
            check_str "first persisted" "first" (Heap.read p h1);
            check_str "second persisted" (String.make 300 'x') (Heap.read p h2))
      done)

let test_heap_bad_handles () =
  with_temp_file (fun path ->
      ignore (write_heap ~page_size:128 path [ "data" ]);
      with_pager path (fun p ->
          let expect_corrupt f =
            match f () with
            | exception Fx_util.Codec.Corrupt _ -> ()
            | _ -> Alcotest.fail "expected Corrupt"
          in
          expect_corrupt (fun () -> Heap.read p (-1));
          expect_corrupt (fun () -> Heap.read p 100_000);
          (* Offset pointing into the middle of the payload: length prefix is
             garbage ("ata…" bytes) or overruns. *)
          expect_corrupt (fun () -> Heap.read p 5);
          expect_corrupt (fun () -> Heap.reader p 5)))

(* A length prefix smashed to a huge (or negative) value must surface
   as Corrupt from the overflow-safe bound, never wrap into a bogus
   in-range read. *)
let test_heap_smashed_prefix () =
  with_temp_file (fun path ->
      let hd = List.hd (write_heap ~page_size:128 path [ "victim" ]) in
      with_pager path (fun p -> check_str "intact before smashing" "victim" (Heap.read p hd));
      (* The record's 4-byte big-endian length lives at byte position
         [hd] of the data pages, after the 128-byte header page. *)
      let smash v =
        let evil = Bytes.create 4 in
        Bytes.set_int32_be evil 0 v;
        poke path (128 + hd) evil;
        with_pager path (fun p ->
            (match Heap.read p hd with
            | exception Fx_util.Codec.Corrupt _ -> ()
            | _ -> Alcotest.fail "mangled length prefix accepted");
            match Heap.reader p hd with
            | exception Fx_util.Codec.Corrupt _ -> ()
            | _ -> Alcotest.fail "mangled length prefix accepted by a reader")
      in
      smash Int32.max_int;
      smash (-1l);
      smash 0l)

(* Writer output reads back through [read] and [reader] at every page
   size, with records spanning pages; the header's root is the last
   record and the file is whole pages. *)
let prop_heap_writer_roundtrip =
  Helpers.qtest ~count:60 "writer output reads back at page sizes 64, 128 and 4096"
    QCheck.(
      pair (oneofl [ 64; 128; 4096 ])
        (list_of_size Gen.(0 -- 40) (string_of_size Gen.(1 -- 700))))
    (fun (page_size, records) ->
      with_temp_file (fun path ->
          let handles = write_heap ~page_size path records in
          let len = file_length path in
          len mod page_size = 0
          && len >= page_size
          && with_pager ~pool_pages:3 path (fun p ->
                 Heap.last_handle p = List.nth_opt (List.rev handles) 0
                 && List.for_all2
                      (fun r h ->
                        Heap.read p h = r
                        &&
                        let rd = Heap.reader p h in
                        Heap.reader_length rd = String.length r
                        && String.init (String.length r) (fun _ -> Char.chr (Heap.byte rd)) = r)
                      records handles)))

(* --- disk labels ----------------------------------------------------------------- *)

let test_disk_labels_roundtrip () =
  with_temp_file (fun path ->
      Sys.remove path;
      let g = Helpers.small_graph () in
      let labels = Fx_index.Two_hop.build g in
      Fx_index.Disk_labels.save ~tags:(Array.make 8 0) ~path labels;
      let disk = Fx_index.Disk_labels.open_ path in
      check_int "nodes" 8 (Fx_index.Disk_labels.n_nodes disk);
      List.iter
        (fun (u, v) ->
          check "same distance" true
            (Fx_index.Disk_labels.distance disk u v = Fx_index.Two_hop.distance labels u v))
        (Helpers.all_pairs 8);
      Fx_index.Disk_labels.close disk)

let test_disk_labels_cold_warm_stats () =
  with_temp_file (fun path ->
      Sys.remove path;
      let g = Helpers.small_graph () in
      Fx_index.Disk_labels.save ~tags:(Array.make 8 0) ~path (Fx_index.Two_hop.build g);
      let disk = Fx_index.Disk_labels.open_ ~pool_pages:4 path in
      Fx_index.Disk_labels.drop_pool disk;
      Fx_index.Disk_labels.reset_stats disk;
      ignore (Fx_index.Disk_labels.distance disk 0 7);
      let cold = (Fx_index.Disk_labels.stats disk).physical_reads in
      check "cold probe reads pages" true (cold > 0);
      ignore (Fx_index.Disk_labels.distance disk 0 7);
      let after = (Fx_index.Disk_labels.stats disk).physical_reads in
      check "warm probe cached" true (after = cold);
      Fx_index.Disk_labels.close disk)

let prop_disk_labels_random =
  Helpers.qtest ~count:20 "disk labels = in-memory labels on random digraphs"
    (Helpers.digraph_arb ~max_n:12 ())
    (fun (n, edges) ->
      with_temp_file (fun path ->
          Sys.remove path;
          let g = Fx_graph.Digraph.of_edges ~n edges in
          let labels = Fx_index.Two_hop.build g in
          Fx_index.Disk_labels.save ~page_size:128 ~tags:(Array.make n 0) ~path labels;
          let disk = Fx_index.Disk_labels.open_ ~pool_pages:2 path in
          let ok =
            List.for_all
              (fun (u, v) ->
                Fx_index.Disk_labels.distance disk u v = Fx_index.Two_hop.distance labels u v)
              (Helpers.all_pairs n)
          in
          Fx_index.Disk_labels.close disk;
          ok))

(* --- disk hopi -------------------------------------------------------------------- *)

let with_temp_prefix f =
  let path = Filename.temp_file "fxhopi" "" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".labels" ])
    (fun () -> f path)

let test_disk_hopi_full () =
  with_temp_prefix (fun path ->
      let dg =
        { Fx_index.Path_index.graph = Helpers.small_graph (); tag = [| 0; 1; 1; 2; 1; 0; 2; 1 |] }
      in
      let hopi = Fx_index.Hopi.build dg in
      Fx_index.Disk_hopi.save ~page_size:256 ~path dg hopi;
      let disk = Fx_index.Disk_hopi.open_ ~path () in
      check_int "nodes" 8 (Fx_index.Disk_hopi.n_nodes disk);
      List.iter
        (fun (u, v) ->
          check "distance matches memory" true
            (Fx_index.Disk_hopi.distance disk u v = Fx_index.Hopi.distance hopi u v))
        (Helpers.all_pairs 8);
      for x = 0 to 7 do
        List.iter
          (fun want ->
            check "descendants match memory" true
              (Fx_index.Disk_hopi.descendants_by_tag disk x want
              = Fx_index.Hopi.descendants_by_tag hopi x want))
          [ None; Some 0; Some 1; Some 2; Some 99 ]
      done;
      Fx_index.Disk_hopi.drop_pool disk;
      check "still answers after pool drop" true
        (Fx_index.Disk_hopi.reachable disk 0 7);
      Fx_index.Disk_hopi.close disk)

let pull k (next : Fx_index.Disk_hopi.stream) =
  let rec go acc i =
    if i >= k then List.rev acc
    else match next () with None -> List.rev acc | Some p -> go (p :: acc) (i + 1)
  in
  go [] 0

let take k l = List.filteri (fun i _ -> i < k) l
let within max_dist l =
  match max_dist with None -> l | Some m -> List.filter (fun (_, d) -> d <= m) l

(* Every stream — each node, tag (wildcard, each tag, an unknown id),
   k and max_dist, both directions, strict or not — is the filtered
   prefix of the in-memory answer. Two pool pages force evictions in
   the middle of the merge. *)
let prop_disk_hopi_random =
  Helpers.qtest ~count:15 "disk HOPI = memory HOPI on random digraphs"
    (Helpers.digraph_arb ~max_n:10 ())
    (fun (n, edges) ->
      with_temp_prefix (fun path ->
          let dg = Helpers.data_graph_of (n, edges) ~tag_seed:3 in
          let hopi = Fx_index.Hopi.build dg in
          Fx_index.Disk_hopi.save ~page_size:256 ~path dg hopi;
          let disk = Fx_index.Disk_hopi.open_ ~pool_pages:2 ~path () in
          let module D = Fx_index.Disk_hopi in
          let ok = ref true in
          let expect got want = if got <> want then ok := false in
          for u = 0 to n - 1 do
            List.iter
              (fun want ->
                let down = Fx_index.Hopi.descendants_by_tag hopi u want in
                let up = Fx_index.Hopi.ancestors_by_tag hopi u want in
                expect (D.descendants_by_tag disk u want) down;
                expect (D.ancestors_by_tag disk u want) up;
                List.iter
                  (fun k ->
                    List.iter
                      (fun max_dist ->
                        expect (pull k (D.descendants disk ?max_dist u want))
                          (take k (within max_dist down));
                        expect
                          (pull k (D.descendants disk ?max_dist ~strict:true u want))
                          (take k
                             (within max_dist (List.filter (fun (v, _) -> v <> u) down)));
                        expect (pull k (D.ancestors disk ?max_dist u want))
                          (take k (within max_dist up)))
                      [ None; Some 0; Some 1; Some 2 ])
                  [ 1; 3; n ])
              [ None; Some 0; Some 1; Some 2; Some 3; Some 99 ]
          done;
          Fx_index.Disk_hopi.close disk;
          !ok))

(* Multi-start EVALUATE: each target at its least distance from a start
   other than itself, against the per-start in-memory answers. Random
   digraphs have cycles, so a start can reach itself and other starts;
   start and target tags may coincide. *)
let prop_disk_hopi_multi_start =
  Helpers.qtest ~count:15 "disk multi-start merge = per-start oracle"
    (Helpers.digraph_arb ~max_n:12 ~edge_factor:2.5 ())
    (fun (n, edges) ->
      with_temp_prefix (fun path ->
          let dg = Helpers.data_graph_of (n, edges) ~tag_seed:5 in
          let hopi = Fx_index.Hopi.build dg in
          Fx_index.Disk_hopi.save ~page_size:256 ~path dg hopi;
          let disk = Fx_index.Disk_hopi.open_ ~pool_pages:2 ~path () in
          let oracle starts target =
            let best = Hashtbl.create 16 in
            List.iter
              (fun s ->
                List.iter
                  (fun (v, d) ->
                    if d > 0 then
                      match Hashtbl.find_opt best v with
                      | Some d' when d' <= d -> ()
                      | _ -> Hashtbl.replace best v d)
                  (Fx_index.Hopi.descendants_by_tag hopi s (Some target)))
              starts;
            Fx_index.Path_index.sort_results (Hashtbl.fold (fun v d acc -> (v, d) :: acc) best [])
          in
          let ok = ref true in
          for start_tag = 0 to 3 do
            let starts = Fx_index.Disk_hopi.nodes_by_tag disk start_tag in
            List.iter
              (fun target ->
                let want = oracle starts target in
                List.iter
                  (fun (k, max_dist) ->
                    match
                      Fx_index.Disk_hopi.descendants_of_starts disk ?max_dist starts
                        (Some target)
                    with
                    | None -> ok := false
                    | Some next ->
                        if pull k next <> take k (within max_dist want) then ok := false)
                  [ (1, None); (3, None); (n, None); (n, Some 1); (3, Some 2) ])
              [ 0; 1; 2; 3; 99 ]
          done;
          (* An expired deadline stops the label fetches: no answer. *)
          if n > 0 then begin
            match
              Fx_index.Disk_hopi.descendants_of_starts disk ~expired:(fun () -> true)
                [ 0 ] (Some 0)
            with
            | None -> ()
            | Some _ -> ok := false
          end;
          Fx_index.Disk_hopi.close disk;
          !ok))

(* The merge streams: the first answer of a wildcard query from a hub
   reads a handful of pages, the full drain reads the whole run. *)
let test_disk_hopi_stream_is_lazy () =
  with_temp_prefix (fun path ->
      let n = 20_000 in
      let rng = Fx_util.Rng.create 11 in
      let edges = List.init (n - 1) (fun i -> (Fx_util.Rng.int rng (i + 1), i + 1)) in
      let dg = Helpers.data_graph_of (n, edges) ~tag_seed:7 in
      let hopi = Fx_index.Hopi.build dg in
      Fx_index.Disk_hopi.save ~page_size:256 ~path dg hopi;
      let disk = Fx_index.Disk_hopi.open_ ~pool_pages:64 ~path () in
      let reads () = (Fx_index.Disk_hopi.stats disk).Pager.logical_reads in
      let r0 = reads () in
      let first = pull 1 (Fx_index.Disk_hopi.descendants disk 0 None) in
      let r1 = reads () in
      let all = Fx_index.Disk_hopi.descendants_by_tag disk 0 None in
      let r2 = reads () in
      check "first answer is the hub itself" true (first = [ (0, 0) ]);
      check_int "the drain reaches every node" n (List.length all);
      check
        (Printf.sprintf "first item cheap (%d reads) against the drain (%d)" (r1 - r0)
           (r2 - r1))
        true
        ((r1 - r0) * 10 < r2 - r1);
      Fx_index.Disk_hopi.close disk)

(* The tag directory lives in the label heap: every tag id's nodes
   come back ascending, through a two-page pool and again after a
   reopen; negative and unknown ids read nothing. *)
let prop_disk_hopi_nodes_by_tag =
  Helpers.qtest ~count:20 "nodes_by_tag = Path_index.nodes_by_tag"
    (Helpers.digraph_arb ~max_n:40 ())
    (fun (n, edges) ->
      with_temp_prefix (fun path ->
          let dg = Helpers.data_graph_of (n, edges) ~tag_seed:9 in
          Fx_index.Disk_hopi.save ~page_size:256 ~path dg (Fx_index.Hopi.build dg);
          let want = Fx_index.Path_index.nodes_by_tag dg in
          let n_tags = Array.length want in
          let agrees () =
            let disk = Fx_index.Disk_hopi.open_ ~pool_pages:2 ~path () in
            let got tag = Fx_index.Disk_hopi.nodes_by_tag disk tag in
            let ok =
              Fx_index.Disk_hopi.n_tags disk = n_tags
              && Array.mapi (fun tag _ -> got tag) want = Array.map Array.to_list want
              && List.for_all (fun tag -> got tag = []) [ -1; min_int; n_tags; n_tags + 7 ]
            in
            Fx_index.Disk_hopi.close disk;
            ok
          in
          agrees () && agrees ()))

(* A tag record out of order or naming a node the store does not have
   is corruption, not an answer. *)
let test_disk_hopi_mangled_tag_record () =
  with_temp_prefix (fun path ->
      let dg =
        { Fx_index.Path_index.graph = Helpers.small_graph (); tag = [| 0; 1; 1; 2; 1; 0; 2; 1 |] }
      in
      Fx_index.Disk_hopi.save ~path dg (Fx_index.Hopi.build dg);
      List.iter
        (fun (what, bytes) ->
          Helpers.replace_tag_record (path ^ ".labels") ~tag:1 bytes;
          let disk = Fx_index.Disk_hopi.open_ ~path () in
          Fun.protect
            ~finally:(fun () -> Fx_index.Disk_hopi.close disk)
            (fun () ->
              check (what ^ ": other tags intact") true
                (Fx_index.Disk_hopi.nodes_by_tag disk 0 = [ 0; 5 ]);
              match Fx_index.Disk_hopi.nodes_by_tag disk 1 with
              | exception Fx_util.Codec.Corrupt _ -> ()
              | _ -> Alcotest.failf "%s accepted" what))
        [ ("a repeated node", "\003\000"); ("a node out of range", "\009") ])

(* Stores of both earlier layouts — labels only (a trailer without the
   layout field), and hop runs without tag records (layout 1) — are
   refused at open with a diagnostic naming the file and how to
   rebuild. *)
let refuses_layout layout () =
  with_temp_prefix (fun path ->
      let dg =
        { Fx_index.Path_index.graph = Helpers.small_graph (); tag = [| 0; 1; 1; 2; 1; 0; 2; 1 |] }
      in
      Fx_index.Disk_hopi.save ~path dg (Fx_index.Hopi.build dg);
      Helpers.stamp_store_layout (path ^ ".labels") layout;
      match Fx_index.Disk_hopi.open_ ~path () with
      | d ->
          Fx_index.Disk_hopi.close d;
          Alcotest.fail "a store of an earlier layout opened"
      | exception Fx_util.Codec.Corrupt msg ->
          check "names the file" true (Astring.String.is_infix ~affix:(path ^ ".labels") msg);
          check "says how to rebuild" true (Astring.String.is_infix ~affix:"--index-dir" msg))

(* A store whose header has no root — every store written before
   header roots — is refused the same way, with no walk of the heap as
   a fallback. *)
let test_disk_hopi_refuses_rootless () =
  with_temp_prefix (fun path ->
      let dg =
        { Fx_index.Path_index.graph = Helpers.small_graph (); tag = [| 0; 1; 1; 2; 1; 0; 2; 1 |] }
      in
      Fx_index.Disk_hopi.save ~path dg (Fx_index.Hopi.build dg);
      Helpers.drop_header_root (path ^ ".labels");
      match Fx_index.Disk_hopi.open_ ~path () with
      | d ->
          Fx_index.Disk_hopi.close d;
          Alcotest.fail "a store without a header root opened"
      | exception Fx_util.Codec.Corrupt msg ->
          check "names the file" true (Astring.String.is_infix ~affix:(path ^ ".labels") msg);
          check "says how to rebuild" true (Astring.String.is_infix ~affix:"--index-dir" msg))

(* The data pages of two small fixed stores are byte for byte the ones
   the appendable heap wrote before the sequential writer replaced it
   (digests recorded from that save); only the header page differs. *)
let test_disk_hopi_golden_pages () =
  let data_digest file =
    let s = In_channel.with_open_bin file In_channel.input_all in
    (String.length s, Digest.to_hex (Digest.string (String.sub s 256 (String.length s - 256))))
  in
  let check_store name dg (len, digest) =
    with_temp_prefix (fun path ->
        Fx_index.Disk_hopi.save ~page_size:256 ~path dg (Fx_index.Hopi.build dg);
        let got_len, got = data_digest (path ^ ".labels") in
        check_int (name ^ ": file length") len got_len;
        check_str (name ^ ": data pages") digest got)
  in
  check_store "small graph"
    { Fx_index.Path_index.graph = Helpers.small_graph (); tag = [| 0; 1; 1; 2; 1; 0; 2; 1 |] }
    (1024, "760975bf1d21cbc70e5f348dc62fe197");
  let n = 300 in
  let rng = Fx_util.Rng.create 2004 in
  let edges =
    List.init (n - 1) (fun i -> (Fx_util.Rng.int rng (i + 1), i + 1))
    @ List.init 60 (fun _ -> (Fx_util.Rng.int rng n, Fx_util.Rng.int rng n))
  in
  check_store "300-node tree with cross links"
    { Fx_index.Path_index.graph = Fx_graph.Digraph.of_edges ~n edges;
      tag = Array.init n (fun i -> i mod 5) }
    (26112, "2630f85d8ebcfb1ab0b38a9fd9759738")

(* Opening a prefix with no files fails naming the label file, and
   leaves no file behind. *)
let test_disk_hopi_open_missing () =
  let dir = Filename.temp_file "fxmissing" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "index" in
      (match Fx_index.Disk_hopi.open_ ~path () with
      | d ->
          Fx_index.Disk_hopi.close d;
          Alcotest.fail "a missing store opened"
      | exception Sys_error msg ->
          check "names the file" true (Astring.String.is_infix ~affix:(path ^ ".labels") msg));
      check_int "directory unchanged" 0 (Array.length (Sys.readdir dir)))

let () =
  Alcotest.run "fx_store"
    [
      ( "pager",
        [
          Alcotest.test_case "basic" `Quick test_pager_basic;
          Alcotest.test_case "persistence" `Quick test_pager_persistence;
          Alcotest.test_case "pool eviction" `Quick test_pager_pool_eviction;
          Alcotest.test_case "cold vs warm" `Quick test_pager_cold_vs_warm;
          Alcotest.test_case "bounds" `Quick test_pager_bounds;
          Alcotest.test_case "page size mismatch" `Quick test_pager_rejects_mismatch;
          Alcotest.test_case "garbage header" `Quick test_pager_rejects_garbage;
          Alcotest.test_case "create fd leak" `Quick test_pager_create_fd_leak;
          Alcotest.test_case "EINTR storm" `Quick test_pager_eintr;
          Alcotest.test_case "hostile bounds" `Quick test_pager_hostile_bounds;
          Alcotest.test_case "striped 4-domain stress" `Quick test_pager_striped_stress;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "roundtrip" `Quick test_heap_roundtrip;
          Alcotest.test_case "reopen" `Quick test_heap_reopen;
          Alcotest.test_case "bad handles" `Quick test_heap_bad_handles;
          Alcotest.test_case "smashed length prefix" `Quick test_heap_smashed_prefix;
          Alcotest.test_case "batch and reader" `Quick test_heap_batch_and_reader;
          prop_heap_writer_roundtrip;
        ] );
      ( "disk_labels",
        [
          Alcotest.test_case "roundtrip" `Quick test_disk_labels_roundtrip;
          Alcotest.test_case "cold/warm stats" `Quick test_disk_labels_cold_warm_stats;
          prop_disk_labels_random;
        ] );
      ( "disk_hopi",
        [
          Alcotest.test_case "full deployment" `Quick test_disk_hopi_full;
          prop_disk_hopi_random;
          prop_disk_hopi_multi_start;
          Alcotest.test_case "stream is lazy" `Quick test_disk_hopi_stream_is_lazy;
          prop_disk_hopi_nodes_by_tag;
          Alcotest.test_case "mangled tag record" `Quick test_disk_hopi_mangled_tag_record;
          Alcotest.test_case "refuses a store without runs" `Quick (refuses_layout None);
          Alcotest.test_case "refuses a layout-1 store" `Quick (refuses_layout (Some 1));
          Alcotest.test_case "refuses a header without a root" `Quick
            test_disk_hopi_refuses_rootless;
          Alcotest.test_case "data pages match the appendable heap's" `Quick
            test_disk_hopi_golden_pages;
          Alcotest.test_case "open creates no file" `Quick test_disk_hopi_open_missing;
        ] );
    ]
