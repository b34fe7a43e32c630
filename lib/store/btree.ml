(* Page layouts (big-endian fixed-width fields):

   meta page (data page 0):
     "FXBT1" | root page i32 | count i64 | height i32

   node pages:
     kind u8 (0 = leaf, 1 = internal) | nkeys u16 (at offset 1)
     leaf:     next-leaf i32 at offset 4 (-1 = none);
               entries at offset 8: key i64, value i64 per slot
     internal: entries at offset 8: keys i64 * cap, then children
               i32 * (cap + 1) at a fixed region after the key region.

   Simplifications that keep this robust: no deletions (the stores are
   rebuildable snapshots), splits only (no merges), whole-page
   read-modify-write through the pager. *)

let meta_magic = "FXBT1"

type t = {
  pager : Pager.t;
  leaf_cap : int;
  int_cap : int;
  mutable root : int;
  mutable count : int;
  mutable height : int;
}

let corrupt msg = raise (Fx_util.Codec.Corrupt msg)

(* --- raw page access ------------------------------------------------ *)

let load t page = Pager.read t.pager ~page ~offset:0 ~len:(Pager.page_size t.pager)
let store t page bytes = Pager.write t.pager ~page ~offset:0 bytes

let kind b = Char.code (Bytes.get b 0)
let set_kind b k = Bytes.set b 0 (Char.chr k)
let nkeys b = Bytes.get_uint16_be b 1
let set_nkeys b n = Bytes.set_uint16_be b 1 n
let next_leaf b = Int32.to_int (Bytes.get_int32_be b 4)
let set_next_leaf b p = Bytes.set_int32_be b 4 (Int32.of_int p)

let leaf_key b i = Int64.to_int (Bytes.get_int64_be b (8 + (16 * i)))
let leaf_value b i = Int64.to_int (Bytes.get_int64_be b (8 + (16 * i) + 8))

let set_leaf_entry b i ~key ~value =
  Bytes.set_int64_be b (8 + (16 * i)) (Int64.of_int key);
  Bytes.set_int64_be b (8 + (16 * i) + 8) (Int64.of_int value)

let int_key b i = Int64.to_int (Bytes.get_int64_be b (8 + (8 * i)))
let set_int_key b i k = Bytes.set_int64_be b (8 + (8 * i)) (Int64.of_int k)

(* The children sit after the key region, which reserves one overflow
   slot: inserts temporarily hold cap+1 keys before splitting. *)
let child_region t = 8 + (8 * (t.int_cap + 1))
let int_child t b i = Int32.to_int (Bytes.get_int32_be b (child_region t + (4 * i)))
let set_int_child t b i p = Bytes.set_int32_be b (child_region t + (4 * i)) (Int32.of_int p)

(* --- meta page ------------------------------------------------------- *)

let write_meta t =
  let b = Bytes.make (Pager.page_size t.pager) '\000' in
  Bytes.blit_string meta_magic 0 b 0 (String.length meta_magic);
  Bytes.set_int32_be b 8 (Int32.of_int t.root);
  Bytes.set_int64_be b 12 (Int64.of_int t.count);
  Bytes.set_int32_be b 20 (Int32.of_int t.height);
  store t 0 b

let read_meta t =
  let b = load t 0 in
  if Bytes.sub_string b 0 (String.length meta_magic) <> meta_magic then
    corrupt "Btree: bad meta magic";
  t.root <- Int32.to_int (Bytes.get_int32_be b 8);
  t.count <- Int64.to_int (Bytes.get_int64_be b 12);
  t.height <- Int32.to_int (Bytes.get_int32_be b 20)

let fresh_node t ~leaf =
  let page = Pager.append_page t.pager in
  let b = Bytes.make (Pager.page_size t.pager) '\000' in
  set_kind b (if leaf then 0 else 1);
  set_nkeys b 0;
  if leaf then set_next_leaf b (-1);
  store t page b;
  page

let create pager =
  let page_size = Pager.page_size pager in
  (* Both capacities reserve an overflow slot (and an overflow child)
     used transiently during splits. *)
  let leaf_cap = ((page_size - 8) / 16) - 1 in
  let int_cap = (page_size - 24) / 12 in
  if leaf_cap < 4 || int_cap < 4 then invalid_arg "Btree.create: page size too small";
  let t = { pager; leaf_cap; int_cap; root = -1; count = 0; height = 1 } in
  if Pager.n_pages pager = 0 then begin
    ignore (Pager.append_page pager) (* meta page *);
    let root = fresh_node t ~leaf:true in
    t.root <- root;
    write_meta t
  end
  else read_meta t;
  t

(* --- search ----------------------------------------------------------- *)

(* Child slot for [key] in an internal node: first key strictly greater
   than [key] decides; keys.(i) is the smallest key in children.(i+1). *)
let child_slot b key =
  let n = nkeys b in
  let lo = ref 0 and hi = ref n in
  (* invariant: keys < lo are <= key; keys >= hi are > key *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if int_key b mid <= key then lo := mid + 1 else hi := mid
  done;
  !lo

let rec find_leaf t page key =
  let b = load t page in
  if kind b = 0 then (page, b) else find_leaf t (int_child t b (child_slot b key)) key

let leaf_slot b key =
  let n = nkeys b in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if leaf_key b mid < key then lo := mid + 1 else hi := mid
  done;
  !lo

let find t key =
  let _, b = find_leaf t t.root key in
  let i = leaf_slot b key in
  if i < nkeys b && leaf_key b i = key then Some (leaf_value b i) else None

(* --- insert ------------------------------------------------------------ *)

type split = { sep : int; right : int }

(* Insert into the subtree at [page]; returns a split description when
   the node had to divide. *)
let rec insert_rec t page key value : split option =
  let b = load t page in
  if kind b = 0 then begin
    let i = leaf_slot b key in
    if i < nkeys b && leaf_key b i = key then begin
      set_leaf_entry b i ~key ~value;
      store t page b;
      None
    end
    else begin
      let n = nkeys b in
      (* shift right *)
      for j = n - 1 downto i do
        set_leaf_entry b (j + 1) ~key:(leaf_key b j) ~value:(leaf_value b j)
      done;
      set_leaf_entry b i ~key ~value;
      set_nkeys b (n + 1);
      t.count <- t.count + 1;
      if n + 1 <= t.leaf_cap then begin
        store t page b;
        None
      end
      else begin
        (* split leaf: left keeps half, right gets the rest *)
        let total = n + 1 in
        let left_n = total / 2 in
        let right_page = fresh_node t ~leaf:true in
        let rb = load t right_page in
        for j = left_n to total - 1 do
          set_leaf_entry rb (j - left_n) ~key:(leaf_key b j) ~value:(leaf_value b j)
        done;
        set_nkeys rb (total - left_n);
        set_next_leaf rb (next_leaf b);
        set_nkeys b left_n;
        set_next_leaf b right_page;
        store t page b;
        store t right_page rb;
        Some { sep = leaf_key rb 0; right = right_page }
      end
    end
  end
  else begin
    let slot = child_slot b key in
    match insert_rec t (int_child t b slot) key value with
    | None -> None
    | Some { sep; right } ->
        (* reload: the recursive call may have evicted our buffer *)
        let b = load t page in
        let n = nkeys b in
        for j = n - 1 downto slot do
          set_int_key b (j + 1) (int_key b j)
        done;
        for j = n downto slot + 1 do
          set_int_child t b (j + 1) (int_child t b j)
        done;
        set_int_key b slot sep;
        set_int_child t b (slot + 1) right;
        set_nkeys b (n + 1);
        if n + 1 <= t.int_cap then begin
          store t page b;
          None
        end
        else begin
          (* split internal: middle key moves up *)
          let total = n + 1 in
          let mid = total / 2 in
          let up = int_key b mid in
          let right_page = fresh_node t ~leaf:false in
          let rb = load t right_page in
          for j = mid + 1 to total - 1 do
            set_int_key rb (j - mid - 1) (int_key b j)
          done;
          for j = mid + 1 to total do
            set_int_child t rb (j - mid - 1) (int_child t b j)
          done;
          set_nkeys rb (total - mid - 1);
          set_nkeys b mid;
          store t page b;
          store t right_page rb;
          Some { sep = up; right = right_page }
        end
  end

let insert t ~key ~value =
  if key < 0 then invalid_arg "Btree.insert: negative key";
  match insert_rec t t.root key value with
  | None -> write_meta t
  | Some { sep; right } ->
      let new_root = fresh_node t ~leaf:false in
      let b = load t new_root in
      set_nkeys b 1;
      set_int_key b 0 sep;
      set_int_child t b 0 t.root;
      set_int_child t b 1 right;
      store t new_root b;
      t.root <- new_root;
      t.height <- t.height + 1;
      write_meta t

(* --- bulk load ------------------------------------------------------------ *)

(* Split [len] items into [ceil (len / cap)] consecutive chunks of
   near-equal size (each at most [cap]); returns the chunk starts. *)
let chunk_starts len cap =
  let m = (len + cap - 1) / cap in
  Array.init m (fun i -> i * len / m)

(* Bottom-up build: leaves packed in key order on consecutive pages
   (the first reuses the empty root leaf of a fresh tree), then each
   internal level over the one below, separators being each child's
   smallest key. One page write per node instead of a root-to-leaf
   read-modify-write per entry. *)
let bulk_load pager entries =
  if Pager.n_pages pager <> 0 then invalid_arg "Btree.bulk_load: file not empty";
  Array.iteri
    (fun i (key, _) ->
      if key < 0 then invalid_arg "Btree.bulk_load: negative key";
      if i > 0 && fst entries.(i - 1) >= key then
        invalid_arg "Btree.bulk_load: keys not strictly ascending")
    entries;
  let t = create pager in
  let len = Array.length entries in
  if len > 0 then begin
    let ps = Pager.page_size pager in
    let starts = chunk_starts len t.leaf_cap in
    let n_leaves = Array.length starts in
    let pages =
      Array.init n_leaves (fun i -> if i = 0 then t.root else Pager.append_page pager)
    in
    Array.iteri
      (fun i first ->
        let last = if i + 1 < n_leaves then starts.(i + 1) else len in
        let b = Bytes.make ps '\000' in
        set_kind b 0;
        set_nkeys b (last - first);
        set_next_leaf b (if i + 1 < n_leaves then pages.(i + 1) else -1);
        for j = first to last - 1 do
          let key, value = entries.(j) in
          set_leaf_entry b (j - first) ~key ~value
        done;
        store t pages.(i) b)
      starts;
    (* (smallest key, page) of every node on the level being grouped. *)
    let rec build level height =
      let n = Array.length level in
      if n = 1 then begin
        t.root <- snd level.(0);
        t.height <- height
      end
      else begin
        let starts = chunk_starts n (t.int_cap + 1) in
        let parents =
          Array.mapi
            (fun i first ->
              let last = if i + 1 < Array.length starts then starts.(i + 1) else n in
              let page = Pager.append_page pager in
              let b = Bytes.make ps '\000' in
              set_kind b 1;
              set_nkeys b (last - first - 1);
              for j = first to last - 1 do
                if j > first then set_int_key b (j - first - 1) (fst level.(j));
                set_int_child t b (j - first) (snd level.(j))
              done;
              store t page b;
              (fst level.(first), page))
            starts
        in
        build parents (height + 1)
      end
    in
    build (Array.mapi (fun i first -> (fst entries.(first), pages.(i))) starts) 1;
    t.count <- len;
    write_meta t
  end;
  t

(* --- range scans --------------------------------------------------------- *)

(* Leaves are appended in key order during a sequential build, so the
   next-leaf chain tends to run through consecutive pages — worth a
   readahead window when a range scan crosses leaves. Non-leaf pages
   caught in the window cost pool room, nothing else. *)
let scan_window = 8

let iter_range t ~lo ~hi f =
  if lo <= hi then begin
    let _, first = find_leaf t t.root lo in
    (* Emit entries of [b] starting at slot [start]; returns true when
       the scan passed [hi] and must stop. *)
    let rec walk b start =
      let n = nkeys b in
      let i = ref start and stop = ref false in
      while (not !stop) && !i < n do
        let k = leaf_key b !i in
        if k > hi then stop := true
        else begin
          f k (leaf_value b !i);
          incr i
        end
      done;
      if (not !stop) && next_leaf b >= 0 then begin
        let nl = next_leaf b in
        Pager.prefetch t.pager ~page:nl ~count:scan_window;
        walk (load t nl) 0
      end
    in
    walk first (leaf_slot first lo)
  end

let range t ~lo ~hi =
  let acc = ref [] in
  iter_range t ~lo ~hi (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let length t = t.count
let height t = t.height
