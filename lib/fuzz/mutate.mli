(** Deterministic mutation stages for the fuzzing fleet: an AFL-style
    deterministic/havoc split over two input shapes (VM input scripts
    and raw parser bytes).  Pure or LCG-driven, so a campaign's input
    stream depends only on its seed. *)

(** A 48-bit LCG ([drand48] constants); fits a 63-bit OCaml [int]
    everywhere, so campaigns replay bit-exactly across platforms. *)
module Rng : sig
  type t

  val create : int -> t
  val int : t -> int -> int
  (** [int t n] draws uniformly from [0, n)]; 0 when [n <= 0]. *)
end

val max_stage : int
(** Upper bound on the candidate count of one deterministic stage. *)

val deterministic_stage : int list -> int list list
(** The bounded, rng-free candidate set tried when an int-vector input
    first enters the corpus: interesting-value substitution, small
    arithmetic, appends, single-element removals. *)

val havoc : Rng.t -> int list -> int list
(** One stacked-random mutation of an int-vector input. *)

val deterministic_stage_bytes : string -> string list
(** Byte-string analogue: truncations, appends, and interesting-byte
    substitutions on a bounded prefix. *)

val havoc_bytes : Rng.t -> string -> string
(** One stacked-random mutation of a byte-string input. *)
