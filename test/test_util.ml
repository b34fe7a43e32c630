(* Tests for fx_util: the LRU cache and the stopwatch. (The RNG is
   covered in test_workload, where its consumers live.) *)

module Lru = Fx_util.Lru

let lru_create ~capacity = Lru.create ~capacity ()

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_lru_basic () =
  let c = lru_create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check "find a" true (Lru.find c "a" = Some 1);
  check "find b" true (Lru.find c "b" = Some 2);
  check "miss" true (Lru.find c "zz" = None);
  check_int "hits" 2 (Lru.hits c);
  check_int "misses" 1 (Lru.misses c)

let test_lru_eviction_order () =
  let c = lru_create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* Touch "a" so "b" is the least recently used. *)
  ignore (Lru.find c "a");
  Lru.add c "c" 3;
  check "b evicted" true (Lru.find c "b" = None);
  check "a kept" true (Lru.find c "a" = Some 1);
  check "c kept" true (Lru.find c "c" = Some 3);
  check_int "length" 2 (Lru.length c)

let test_lru_replace () =
  let c = lru_create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "a" 10;
  check "replaced" true (Lru.find c "a" = Some 10);
  check_int "no duplicate" 1 (Lru.length c)

let test_lru_remove_clear () =
  let c = lru_create ~capacity:4 in
  Lru.add c 1 "x";
  Lru.add c 2 "y";
  Lru.remove c 1;
  check "removed" false (Lru.mem c 1);
  check "other kept" true (Lru.mem c 2);
  Lru.clear c;
  check_int "cleared" 0 (Lru.length c);
  check_int "stats reset" 0 (Lru.hits c + Lru.misses c)

let test_lru_capacity_one () =
  let c = lru_create ~capacity:1 in
  Lru.add c 1 1;
  Lru.add c 2 2;
  check "only newest" true (Lru.find c 2 = Some 2 && not (Lru.mem c 1))

let test_lru_bad_capacity () =
  Alcotest.check_raises "capacity 0" (Invalid_argument "Lru.create: capacity < 1") (fun () ->
      ignore (lru_create ~capacity:0))

let test_lru_stress () =
  (* Heavier workload: the table and list must stay consistent. *)
  let cap = 16 in
  let c = lru_create ~capacity:cap in
  let rng = Fx_util.Rng.create 99 in
  for _ = 1 to 5_000 do
    let k = Fx_util.Rng.int rng 64 in
    match Fx_util.Rng.int rng 3 with
    | 0 -> Lru.add c k k
    | 1 -> begin
        match Lru.find c k with
        | Some v -> check "value matches key" true (v = k)
        | None -> ()
      end
    | _ -> Lru.remove c k
  done;
  check "within capacity" true (Lru.length c <= cap)

module Codec = Fx_util.Codec

let test_codec_roundtrip () =
  let w = Codec.Writer.create ~magic:"t1" in
  Codec.Writer.int w 0;
  Codec.Writer.int w 42;
  Codec.Writer.int w (-1);
  Codec.Writer.int w 123456789;
  Codec.Writer.int w (-987654321);
  Codec.Writer.int_array w [| 1; 2; 3 |];
  Codec.Writer.string w "hello";
  Codec.Writer.string w "";
  let r = Codec.Reader.create ~magic:"t1" (Codec.Writer.contents w) in
  check_int "0" 0 (Codec.Reader.int r);
  check_int "42" 42 (Codec.Reader.int r);
  check_int "-1" (-1) (Codec.Reader.int r);
  check_int "big" 123456789 (Codec.Reader.int r);
  check_int "big neg" (-987654321) (Codec.Reader.int r);
  Alcotest.(check (array int)) "array" [| 1; 2; 3 |] (Codec.Reader.int_array r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check string) "empty string" "" (Codec.Reader.string r);
  Codec.Reader.expect_end r

let expect_corrupt f =
  match f () with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_codec_corrupt () =
  expect_corrupt (fun () -> Codec.Reader.create ~magic:"aa" "bb\xffdata");
  expect_corrupt (fun () -> Codec.Reader.create ~magic:"aa" "");
  (* truncated varint *)
  let w = Codec.Writer.create ~magic:"t" in
  Codec.Writer.int w 300;
  let data = Codec.Writer.contents w in
  let truncated = String.sub data 0 (String.length data - 1) in
  expect_corrupt (fun () ->
      let r = Codec.Reader.create ~magic:"t" truncated in
      ignore (Codec.Reader.int r));
  (* implausible lengths *)
  let w2 = Codec.Writer.create ~magic:"t" in
  Codec.Writer.int w2 1_000_000;
  expect_corrupt (fun () ->
      let r = Codec.Reader.create ~magic:"t" (Codec.Writer.contents w2) in
      ignore (Codec.Reader.int_array r));
  (* trailing bytes *)
  let w3 = Codec.Writer.create ~magic:"t" in
  Codec.Writer.int w3 1;
  Codec.Writer.int w3 2;
  expect_corrupt (fun () ->
      let r = Codec.Reader.create ~magic:"t" (Codec.Writer.contents w3) in
      ignore (Codec.Reader.int r);
      Codec.Reader.expect_end r)

let prop_codec_ints =
  Helpers.qtest "codec int roundtrip"
    QCheck.(list int)
    (fun xs ->
      (* Stay within the zig-zag safe range |v| < 2^61. *)
      let xs = List.map (fun x -> x asr 2) xs in
      let w = Codec.Writer.create ~magic:"q" in
      List.iter (Codec.Writer.int w) xs;
      let r = Codec.Reader.create ~magic:"q" (Codec.Writer.contents w) in
      List.for_all (fun x -> Codec.Reader.int r = x) xs)

let test_stopwatch () =
  let w = Fx_util.Stopwatch.start () in
  let counter = ref 0 in
  for i = 1 to 1_000_000 do
    counter := !counter + i
  done;
  check "elapsed positive" true (Fx_util.Stopwatch.elapsed_ns w >= 0L);
  let (), ns = Fx_util.Stopwatch.time_ns (fun () -> ()) in
  check "time_ns nonneg" true (ns >= 0L)

let () =
  Alcotest.run "fx_util"
    [
      ( "lru",
        [
          Alcotest.test_case "basic" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace" `Quick test_lru_replace;
          Alcotest.test_case "remove/clear" `Quick test_lru_remove_clear;
          Alcotest.test_case "capacity one" `Quick test_lru_capacity_one;
          Alcotest.test_case "bad capacity" `Quick test_lru_bad_capacity;
          Alcotest.test_case "stress" `Quick test_lru_stress;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "corrupt input" `Quick test_codec_corrupt;
          prop_codec_ints;
        ] );
      ("stopwatch", [ Alcotest.test_case "basic" `Quick test_stopwatch ]);
    ]
