(* Classic doubly-linked list + hash table LRU. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable first : ('k, 'v) node option; (* most recently used *)
  mutable last : ('k, 'v) node option;
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Lru.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create (2 * capacity);
    first = None;
    last = None;
    hits = 0;
    misses = 0;
  }

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  node.prev <- None;
  (match t.first with Some f -> f.prev <- Some node | None -> t.last <- Some node);
  t.first <- Some node

let find t k =
  match Hashtbl.find_opt t.table k with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some node ->
      t.hits <- t.hits + 1;
      unlink t node;
      push_front t node;
      Some node.value

let evict t =
  match t.last with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table node.key

let add t k v =
  (match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node
  | None ->
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node;
      (* A loop: a map filled past capacity by [set] drains here. *)
      while Hashtbl.length t.table > t.capacity do
        evict t
      done);
  ()

(* Insert/replace without the eviction loop: segment users (the pager's
   striped buffer pool) run their own eviction policy, which must skip
   pages whose miss fill is still in flight. *)
let set t k v =
  match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      unlink t node;
      push_front t node
  | None ->
      let node = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.table k node;
      push_front t node

let peek_lru t =
  match t.last with None -> None | Some node -> Some (node.key, node.value)

let mem t k = Hashtbl.mem t.table k

let remove t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some node ->
      unlink t node;
      Hashtbl.remove t.table k

let length t = Hashtbl.length t.table

let iter t f = Hashtbl.iter (fun k node -> f k node.value) t.table

let clear t =
  Hashtbl.reset t.table;
  t.first <- None;
  t.last <- None;
  t.hits <- 0;
  t.misses <- 0

let hits t = t.hits
let misses t = t.misses
