(** The bounds-checked cursor behind every decoder of bytes from
    outside the program (RELF, [.elimtab], [.traptab], [allow.lst]).
    Malformed input raises {!Error}, never a raw exception. *)

type what = Magic | Truncated | Int | Section | Nocode
(** The [parse.*] sub-code. *)

type error = { what : what; src : string; off : int; line : int; msg : string }
(** [off] and [line] (1-based) locate the item that failed. *)

exception Error of error

val code : what -> string

val message : error -> string
(** ["SRC:LINE: MSG (byte OFF)"] *)

type t

val create : src:string -> string -> t

val fail : t -> what -> string -> 'a
(** Raise {!Error} at the item read last. *)

val magic : t -> string -> unit
(** Consume the header, or [Magic]. *)

val line : t -> string option
(** The next line without its newline, which the last line may lack;
    [None] at the end. *)

val field : t -> string
(** {!line}, or [Truncated] unless it ends in a newline. *)

val bytes : t -> int -> string
(** The next [n] bytes, or [Section]. *)

val count : t -> int -> size:int -> int
(** [n], or [Section] if [n] items of [size] bytes exceed the bytes left. *)

val hex : t -> string -> int
(** Hex digits that fit a non-negative [int], or [Int]. *)

val dec : t -> string -> int
(** An optional [-] and decimal digits that fit an [int], or [Int]. *)

val hex_opt : string -> int option
(** {!hex} without a cursor: [None] where {!hex} fails. *)

val dec_opt : string -> int option
(** {!dec} without a cursor: [None] where {!dec} fails. *)
