(** Minimal binary (de)serialisation for index snapshots: LEB128-style
    varints, int arrays and length-prefixed strings, with a magic tag to
    catch format mix-ups. Decoding never trusts its input — corrupt or
    truncated data raises {!Corrupt}, not a segfault or a bogus index. *)

exception Corrupt of string

module Writer : sig
  type t

  val create : magic:string -> t
  val int : t -> int -> unit
  (** Any OCaml int, including negatives (zig-zag encoded). *)

  val int_array : t -> int array -> unit
  val string : t -> string -> unit
  val contents : t -> string
end

module Reader : sig
  type t

  val create : magic:string -> string -> t
  (** @raise Corrupt when the magic tag does not match. *)

  val int : t -> int
  val int_array : t -> int array
  val string : t -> string

  val at_end : t -> bool
  (** No bytes remain — lets a format grow an optional trailing field. *)

  val expect_end : t -> unit
  (** @raise Corrupt when trailing bytes remain. *)
end
