(** Forward "available checks" analysis.

    A fact means: on every graph path to this point some site emitted
    a check of a given variant covering a displacement interval off an
    address expression (seg, base, idx, scale), and nothing since has
    redefined the expression's registers or made a call (which could
    free the guarded object).  The join intersects facts requiring the
    {e same generating site}, so an available fact's site lies on
    every path to its point of use. *)

type key = {
  seg : int;
  base : X64.Isa.reg option;
  idx : X64.Isa.reg option;
  scale : int;
}

type info = {
  lo : int;                      (** covered displacement interval... *)
  hi : int;                      (** ...[lo, hi), relative to [key] *)
  site : int;                    (** instruction index of the check site *)
  variant : X64.Isa.variant;
}

type fact = Top | Facts of (key * info) list

val key_of_mem : X64.Isa.mem -> key
(** The address expression of a memory operand (displacement dropped). *)

val compare_key : key -> key -> int
(** The order fact lists are kept in: polymorphic [compare]'s order
    (seg, then base with [None] first, then idx, then scale), without
    its C call. *)

val equal_key : key -> key -> bool

val equal_fact : fact -> fact -> bool
(** Structural equality, as [(=)]. *)

val covers : info -> variant:X64.Isa.variant -> lo:int -> hi:int -> bool
(** Does the fact justify skipping a check of [variant] over [lo, hi)?
    A [Redzone]-only fact never stands in for a [Full] check. *)

val join : fact -> fact -> fact

val transfer_instr : (key * info) list -> X64.Isa.instr -> fact -> fact
(** One instruction: gen (the facts its own site's checks establish,
    which run first), then kill (registers redefined; everything on a
    call). *)

type t

val solve : Graph.t -> gen:(key * info) list array -> t
(** [gen.(i)] holds the facts the (planned or discovered) check site
    patched at instruction [i] establishes, [[]] where there is none;
    one entry per instruction of the graph. *)

val available_before : t -> int -> (key * info) list
(** Facts available immediately before an instruction, excluding the
    instruction's own site.  Empty for unreachable blocks.  Replays
    the block prefix on every call; {!available_at} walks it once. *)

type cursor
(** A walk over the blocks of a solved analysis, for queries that come
    in increasing instruction order. *)

val cursor : t -> cursor

val available_at : cursor -> int -> (key * info) list
(** [available_at c i] = [available_before t i].  Within a block a
    query at or after the previous one steps only the instructions in
    between, so a block's queries cost one walk of the block; any
    other query restarts at its block's entry. *)

val find : (key * info) list -> key -> info option
