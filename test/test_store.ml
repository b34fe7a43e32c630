(* Tests for the storage substrate: the pager with its LRU buffer pool
   and the heap file, including persistence across reopen and corrupt-
   input handling. *)

module Pager = Fx_store.Pager
module Heap = Fx_store.Heap_file

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_temp_file f =
  let path = Filename.temp_file "fxstore" ".pg" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* --- pager --------------------------------------------------------------- *)

let test_pager_basic () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      check_int "no pages" 0 (Pager.n_pages p);
      let pg = Pager.append_page p in
      check_int "first page" 0 pg;
      Pager.write p ~page:pg ~offset:10 (Bytes.of_string "hello");
      check_str "readback" "hello" (Bytes.to_string (Pager.read p ~page:pg ~offset:10 ~len:5));
      Pager.close p)

let test_pager_persistence () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let a = Pager.append_page p in
      let b = Pager.append_page p in
      Pager.write p ~page:a ~offset:0 (Bytes.of_string "page-a");
      Pager.write p ~page:b ~offset:64 (Bytes.of_string "page-b");
      Pager.close p;
      let p2 = Pager.create ~page_size:128 path in
      check_int "pages recovered" 2 (Pager.n_pages p2);
      check_str "a persisted" "page-a" (Bytes.to_string (Pager.read p2 ~page:a ~offset:0 ~len:6));
      check_str "b persisted" "page-b" (Bytes.to_string (Pager.read p2 ~page:b ~offset:64 ~len:6));
      Pager.close p2)

let test_pager_pool_eviction () =
  with_temp_file (fun path ->
      Sys.remove path;
      (* Pool of 2 pages in a single stripe: touching 3 pages in
         rotation must evict and write back dirty pages correctly.
         (One stripe so all three pages share one LRU segment —
         otherwise each page gets its own stripe and nothing evicts.) *)
      let p = Pager.create ~pool_pages:2 ~stripes:1 ~page_size:128 path in
      let pages = List.init 3 (fun _ -> Pager.append_page p) in
      List.iteri
        (fun i pg -> Pager.write p ~page:pg ~offset:0 (Bytes.of_string (Printf.sprintf "v%d" i)))
        pages;
      Pager.reset_stats p;
      (* Everything must read back despite the tiny pool. *)
      List.iteri
        (fun i pg ->
          check_str "value survives eviction"
            (Printf.sprintf "v%d" i)
            (Bytes.to_string (Pager.read p ~page:pg ~offset:0 ~len:2)))
        pages;
      let s = Pager.stats p in
      check "some misses" true (s.physical_reads > 0);
      check_int "logical = 3" 3 s.logical_reads;
      Pager.close p)

let test_pager_cold_vs_warm () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let pg = Pager.append_page p in
      Pager.write p ~page:pg ~offset:0 (Bytes.of_string "x");
      Pager.flush p;
      Pager.drop_pool p;
      Pager.reset_stats p;
      ignore (Pager.read p ~page:pg ~offset:0 ~len:1);
      check_int "cold miss" 1 (Pager.stats p).physical_reads;
      ignore (Pager.read p ~page:pg ~offset:0 ~len:1);
      check_int "warm hit" 1 (Pager.stats p).physical_reads;
      check_int "two logical" 2 (Pager.stats p).logical_reads;
      Pager.close p)

let test_pager_bounds () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let pg = Pager.append_page p in
      Alcotest.check_raises "offset overflow"
        (Invalid_argument "Pager.write: out of page bounds") (fun () ->
          Pager.write p ~page:pg ~offset:120 (Bytes.of_string "0123456789"));
      Alcotest.check_raises "page out of range" (Invalid_argument "Pager: page out of range")
        (fun () -> ignore (Pager.read p ~page:7 ~offset:0 ~len:1));
      Pager.close p)

let test_pager_rejects_mismatch () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      Pager.close p;
      match Pager.create ~page_size:256 path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "page-size mismatch accepted")

let test_pager_rejects_garbage () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc (String.make 128 'z');
      close_out oc;
      match Pager.create ~page_size:128 path with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "garbage header accepted")

(* --- pager concurrency and fault injection ------------------------------- *)

(* Hammer one shared pager from 4 domains with mixed reads, rewrites,
   appends, and flushes, through a pool far smaller than the working
   set so eviction write-backs race with everything else. Every write
   fills a whole page with one byte, so any read observing two
   different bytes in a page proves a torn (unlocked) access. *)
let test_pager_domain_stress () =
  with_temp_file (fun path ->
      Sys.remove path;
      let page_size = 128 and n_domains = 4 and base_pages = 16 and rounds = 300 in
      let p = Pager.create ~pool_pages:4 ~page_size path in
      for i = 0 to base_pages - 1 do
        let pg = Pager.append_page p in
        Pager.write p ~page:pg ~offset:0 (Bytes.make page_size (Char.chr (65 + i)))
      done;
      let fill d r = Char.chr (33 + ((d * 31) + r) mod 94) in
      (* Only domain [d] ever writes pages where [pg mod n_domains = d],
         so each slot of [final] has exactly one writer. *)
      let final = Array.make (base_pages + (n_domains * rounds)) None in
      let n_appended = Array.make n_domains 0 in
      let work d () =
        let rng = Fx_util.Rng.create (1000 + d) in
        for r = 0 to rounds - 1 do
          let own = (Fx_util.Rng.int rng (base_pages / n_domains) * n_domains) + d in
          Pager.write p ~page:own ~offset:0 (Bytes.make page_size (fill d r));
          final.(own) <- Some (fill d r);
          let q = Fx_util.Rng.int rng base_pages in
          let b = Pager.read p ~page:q ~offset:0 ~len:page_size in
          let c0 = Bytes.get b 0 in
          if not (Bytes.for_all (fun c -> c = c0) b) then
            failwith (Printf.sprintf "torn read on page %d" q);
          if r mod 50 = 25 then begin
            let np = Pager.append_page p in
            Pager.write p ~page:np ~offset:0 (Bytes.make page_size (fill d (r + 7)));
            final.(np) <- Some (fill d (r + 7));
            n_appended.(d) <- n_appended.(d) + 1
          end;
          if r mod 97 = 0 then Pager.flush p
        done
      in
      let domains = List.init n_domains (fun d -> Domain.spawn (work d)) in
      List.iter Domain.join domains;
      let total = base_pages + Array.fold_left ( + ) 0 n_appended in
      check_int "page count" total (Pager.n_pages p);
      let verify pager =
        for pg = 0 to total - 1 do
          match final.(pg) with
          | None -> ()
          | Some c ->
              let b = Pager.read pager ~page:pg ~offset:0 ~len:page_size in
              if not (Bytes.for_all (fun c' -> c' = c) b) then
                Alcotest.fail (Printf.sprintf "page %d lost its last write" pg)
        done
      in
      verify p;
      Pager.close p;
      (* And everything survived the disk round-trip. *)
      let p2 = Pager.create ~page_size path in
      check_int "pages persisted" total (Pager.n_pages p2);
      verify p2;
      Pager.close p2)

(* Regression for the dirty-evict error path: redirect the stripe's fd
   at /dev/full (reads succeed as zeros, writes fail ENOSPC) so the
   write-back triggered by an eviction fails. The error must reach the
   caller, the dirty page must stay resident, and once the "device"
   recovers a flush must persist it. One stripe so both pages share an
   LRU segment (and a descriptor) and reading [b] really evicts [a]. *)
let test_pager_dirty_evict_enospc () =
  if not (Sys.file_exists "/dev/full") then ()
  else
    with_temp_file (fun path ->
        Sys.remove path;
        let p = Pager.create ~pool_pages:1 ~stripes:1 ~page_size:128 path in
        let a = Pager.append_page p in
        let b = Pager.append_page p in
        Pager.write p ~page:a ~offset:0 (Bytes.of_string "precious");
        let real = Unix.dup (Pager.unsafe_page_fd p ~page:a) in
        let full = Unix.openfile "/dev/full" [ Unix.O_RDWR ] 0 in
        Unix.dup2 full (Pager.unsafe_page_fd p ~page:a);
        Unix.close full;
        (* Reading [b] must evict dirty [a]; the write-back hits ENOSPC. *)
        let raised =
          try
            ignore (Pager.read p ~page:b ~offset:0 ~len:4);
            false
          with Unix.Unix_error (Unix.ENOSPC, _, _) -> true
        in
        check "write-back failure propagates" true raised;
        check_str "dirty page still resident" "precious"
          (Bytes.to_string (Pager.read p ~page:a ~offset:0 ~len:8));
        ignore (Pager.stats p);
        Unix.dup2 real (Pager.unsafe_page_fd p ~page:a);
        Unix.close real;
        Pager.flush p;
        Pager.close p;
        let p2 = Pager.create ~page_size:128 path in
        check_str "persisted once the device recovered" "precious"
          (Bytes.to_string (Pager.read p2 ~page:a ~offset:0 ~len:8));
        Pager.close p2)

(* Same error path via EBADF: the stripe descriptor vanishes under the
   pager (closed behind its back), so the flush's write-back itself
   fails. Flush reports it, the page survives in the pool, and a
   restored descriptor lets the retry succeed. *)
let test_pager_flush_after_fd_loss () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let a = Pager.append_page p in
      Pager.write p ~page:a ~offset:0 (Bytes.of_string "keep-me");
      let real = Unix.dup (Pager.unsafe_page_fd p ~page:a) in
      Unix.close (Pager.unsafe_page_fd p ~page:a);
      let raised =
        try
          Pager.flush p;
          false
        with Unix.Unix_error (Unix.EBADF, _, _) -> true
      in
      check "flush reports the dead fd" true raised;
      check_str "page still resident" "keep-me"
        (Bytes.to_string (Pager.read p ~page:a ~offset:0 ~len:7));
      ignore (Pager.stats p);
      Unix.dup2 real (Pager.unsafe_page_fd p ~page:a);
      Unix.close real;
      Pager.flush p;
      Pager.close p;
      let p2 = Pager.create ~page_size:128 path in
      check_str "persisted after retry" "keep-me"
        (Bytes.to_string (Pager.read p2 ~page:a ~offset:0 ~len:7));
      Pager.close p2)

(* Regression for the fd leak in [Pager.create]: opening a fresh file
   whose header write fails (ENOSPC on /dev/full) must close every
   descriptor it opened on the way out. *)
let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_pager_create_fd_leak () =
  if not (Sys.file_exists "/dev/full" && Sys.file_exists "/proc/self/fd") then ()
  else begin
    let before = count_fds () in
    (match Pager.create ~page_size:128 "/dev/full" with
    | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> ()
    | p ->
        Pager.close p;
        Alcotest.fail "header write to /dev/full succeeded");
    check_int "no descriptor leaked" before (count_fds ())
  end

(* The pager must absorb EINTR: a 1 kHz interval timer peppers the
   process with SIGALRM while pager I/O churns through a pool far
   smaller than the working set, so page reads, eviction write-backs,
   and fsyncs all run with signals landing mid-syscall. Without the
   retry loops this surfaces as Unix_error (EINTR, _, _). *)
let test_pager_eintr () =
  with_temp_file (fun path ->
      Sys.remove path;
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
          let p = Pager.create ~pool_pages:2 ~stripes:1 ~page_size path in
          let n = 8 in
          let pages = Array.init n (fun _ -> Pager.append_page p) in
          for r = 0 to 1999 do
            let pg = pages.(r mod n) in
            let c = Char.chr (33 + (r mod 94)) in
            Pager.write p ~page:pg ~offset:0 (Bytes.make page_size c);
            let b = Pager.read p ~page:pg ~offset:0 ~len:page_size in
            if not (Bytes.for_all (fun c' -> c' = c) b) then
              Alcotest.fail (Printf.sprintf "bad readback on round %d" r);
            if r mod 25 = 0 then Pager.flush p
          done;
          Pager.close p))

(* Hostile offsets and lengths must be rejected up front — including
   the offset = page_size corner (a zero-length write at the page end
   addresses no byte yet used to slip past the bound) and max_int /
   min_int values that would wrap [offset + len]. *)
let test_pager_hostile_bounds () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let pg = Pager.append_page p in
      let expect_invalid name f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (name ^ ": accepted")
      in
      expect_invalid "write at page_size" (fun () ->
          Pager.write p ~page:pg ~offset:128 Bytes.empty);
      expect_invalid "write past page_size" (fun () ->
          Pager.write p ~page:pg ~offset:129 Bytes.empty);
      expect_invalid "negative write offset" (fun () ->
          Pager.write p ~page:pg ~offset:(-1) (Bytes.of_string "x"));
      expect_invalid "write offset max_int" (fun () ->
          Pager.write p ~page:pg ~offset:max_int (Bytes.of_string "x"));
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
        (match Pager.read p ~page:pg ~offset ~len with
        | b ->
            check "accepted read is in bounds" true
              (offset >= 0 && len >= 0 && offset + len <= 128 && Bytes.length b = len)
        | exception Invalid_argument _ -> ());
        let wlen = pick () in
        if wlen >= 0 && wlen <= 4096 then
          match Pager.write p ~page:pg ~offset (Bytes.make wlen 'w') with
          | () ->
              check "accepted write is in bounds" true
                (offset >= 0 && offset < 128 && offset + wlen <= 128)
          | exception Invalid_argument _ -> ()
      done;
      Pager.close p)

(* Striped-pool stress: 4 domains re-read a fixed working set through 8
   stripes with prefetch mixed in, then the counters must cohere — the
   aggregate equals the per-stripe sum, the logical count is exactly
   one per [Pager.read] call, and no stripe ends over capacity. *)
let test_pager_striped_stress () =
  with_temp_file (fun path ->
      Sys.remove path;
      let page_size = 128 and n_domains = 4 and n_pages = 64 and rounds = 50 in
      let p = Pager.create ~pool_pages:16 ~stripes:8 ~page_size path in
      for i = 0 to n_pages - 1 do
        let pg = Pager.append_page p in
        Pager.write p ~page:pg ~offset:0 (Bytes.make page_size (Char.chr (33 + (i mod 94))))
      done;
      Pager.reset_stats p;
      let work d () =
        let rng = Fx_util.Rng.create (77 + d) in
        for r = 0 to rounds - 1 do
          if r mod 10 = d then Pager.prefetch p ~page:(Fx_util.Rng.int rng n_pages) ~count:16;
          for pg = 0 to n_pages - 1 do
            let b = Pager.read p ~page:pg ~offset:0 ~len:page_size in
            let expect = Char.chr (33 + (pg mod 94)) in
            if not (Bytes.for_all (fun c -> c = expect) b) then
              failwith (Printf.sprintf "bad bytes on page %d" pg)
          done
        done
      in
      let domains = List.init n_domains (fun d -> Domain.spawn (work d)) in
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
        per_stripe;
      Pager.close p)

(* --- heap file -------------------------------------------------------------- *)

let test_heap_roundtrip () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let h = Heap.create p in
      let records = [ "alpha"; String.make 500 'b'; "gamma"; String.make 1000 'd' ] in
      let handles = List.map (Heap.append h) records in
      List.iter2 (fun r hd -> check_str "roundtrip" r (Heap.read h hd)) records handles;
      check_int "payload" (List.fold_left (fun a r -> a + String.length r) 0 records)
        (Heap.size_bytes h);
      Pager.close p)

(* Batched appends land where their handles say once flushed, and a
   windowed reader walks records that span pages byte for byte. *)
let test_heap_batch_and_reader () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let h = Heap.create p in
      let first = Heap.append h "plain" in
      let b = Heap.batch h in
      let records =
        List.init 40 (fun i ->
            String.init (1 + (i * 37 mod 300)) (fun j -> Char.chr (97 + ((i + j) mod 26))))
      in
      let handles = List.map (Heap.add b) records in
      Heap.flush_batch b;
      check_str "plain record intact" "plain" (Heap.read h first);
      List.iter2 (fun r hd -> check_str "batched record" r (Heap.read h hd)) records handles;
      check "last handle is the last batched record" true
        (Heap.last_handle h = Some (List.nth handles 39));
      check "append behind a batch is refused" true
        (ignore (Heap.append h "late");
         match Heap.add b "x" with
         | _ -> false
         | exception Invalid_argument _ -> true);
      List.iter2
        (fun r hd ->
          let rd = Heap.reader h hd in
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
        records handles;
      Pager.close p;
      (* Batched records survive a reopen like appended ones. *)
      let p2 = Pager.create ~page_size:128 path in
      let h2 = Heap.create p2 in
      List.iter2 (fun r hd -> check_str "reopened" r (Heap.read h2 hd)) records handles;
      Pager.close p2)

let test_heap_reopen () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let h = Heap.create p in
      let h1 = Heap.append h "first" in
      let h2 = Heap.append h (String.make 300 'x') in
      Pager.close p;
      let p2 = Pager.create ~page_size:128 path in
      let h' = Heap.create p2 in
      check_str "first persisted" "first" (Heap.read h' h1);
      check_str "second persisted" (String.make 300 'x') (Heap.read h' h2);
      check "last handle recovered" true (Heap.last_handle h' = Some h2);
      (* Appending after reopen continues at the cursor. *)
      let h3 = Heap.append h' "third" in
      check "append after reopen" true (h3 > h2);
      check_str "third" "third" (Heap.read h' h3);
      Pager.close p2)

let test_heap_bad_handles () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let h = Heap.create p in
      ignore (Heap.append h "data");
      let expect_corrupt f =
        match f () with
        | exception Fx_util.Codec.Corrupt _ -> ()
        | _ -> Alcotest.fail "expected Corrupt"
      in
      expect_corrupt (fun () -> Heap.read h (-1));
      expect_corrupt (fun () -> Heap.read h 100_000);
      (* Offset pointing into the middle of the payload: length prefix is
         garbage ("ata…" bytes) or overruns. *)
      expect_corrupt (fun () -> Heap.read h 5);
      Pager.close p)

(* A length prefix smashed to a huge (or negative) value must surface
   as Corrupt from the overflow-safe bound, never wrap into a bogus
   in-range read. *)
let test_heap_smashed_prefix () =
  with_temp_file (fun path ->
      Sys.remove path;
      let p = Pager.create ~page_size:128 path in
      let h = Heap.create p in
      let hd = Heap.append h "victim" in
      check_str "intact before smashing" "victim" (Heap.read h hd);
      (* The record's 4-byte big-endian length lives at byte position
         [hd]: page hd/128, offset hd mod 128. *)
      let smash v =
        let evil = Bytes.create 4 in
        Bytes.set_int32_be evil 0 v;
        Pager.write p ~page:(hd / 128) ~offset:(hd mod 128) evil;
        match Heap.read h hd with
        | exception Fx_util.Codec.Corrupt _ -> ()
        | _ -> Alcotest.fail "mangled length prefix accepted"
      in
      smash Int32.max_int;
      smash (-1l);
      Pager.close p)

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
          let disk = Fx_index.Disk_labels.open_ ~pool_pages:2 ~page_size:128 path in
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
      let disk = Fx_index.Disk_hopi.open_ ~page_size:256 ~path () in
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
          let disk = Fx_index.Disk_hopi.open_ ~page_size:256 ~pool_pages:2 ~path () in
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
          let disk = Fx_index.Disk_hopi.open_ ~page_size:256 ~pool_pages:2 ~path () in
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
      let disk = Fx_index.Disk_hopi.open_ ~page_size:256 ~pool_pages:64 ~path () in
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
            let disk = Fx_index.Disk_hopi.open_ ~page_size:256 ~pool_pages:2 ~path () in
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
          Alcotest.test_case "4-domain stress" `Quick test_pager_domain_stress;
          Alcotest.test_case "dirty evict ENOSPC" `Quick test_pager_dirty_evict_enospc;
          Alcotest.test_case "flush after fd loss" `Quick test_pager_flush_after_fd_loss;
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
          Alcotest.test_case "open creates no file" `Quick test_disk_hopi_open_missing;
        ] );
    ]
