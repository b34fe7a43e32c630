(** A bounded multi-producer/multi-consumer queue — the admission-control
    point of the query service.

    Producers never block: {!try_push} fails immediately when the queue
    is at capacity, so a saturated server answers [BUSY] instead of
    building an unbounded backlog. Consumers block in {!pop} until work
    arrives or the queue is closed. Safe across domains and threads
    (mutex + condition variable). *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed — the caller should reject
    the request. Never blocks. *)

val pop : 'a t -> 'a option
(** Blocks until an element is available; [None] once the queue is
    closed {e and} drained — the consumer's signal to exit. *)

val close : 'a t -> unit
(** Rejects further pushes and wakes all blocked consumers. Elements
    already queued are still delivered. Idempotent. *)
