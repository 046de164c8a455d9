(** Block-local copy/constant canonicalization of memory operands:
    rewrite an operand's registers to the oldest registers provably
    holding the same values at that instruction (following [mov]
    chains within the block), and fold registers holding known
    constants into the displacement.  Merge keys, check operands and
    availability facts all become canonical — and the soundness linter
    applies the same function, keeping its proof obligations in sync
    with the optimizer. *)

type state = {
  copy : int option array;
      (** register -> canonical register holding the same value *)
  konst : int option array;  (** register -> known constant value *)
}
(** Per-register knowledge at a program point.  Exposed so loop
    analysis ({!Loops}) can evaluate the same copy/constant lattice
    over instruction ranges that are not the prefix of a member's own
    block (preheaders, guard blocks). *)

val fresh : unit -> state
(** The empty state: nothing known about any register. *)

val canon_reg : state -> X64.Isa.reg -> X64.Isa.reg
(** The oldest register provably holding the same value, or the
    register itself. *)

val step : state -> X64.Isa.instr -> unit
(** Advance the state across one instruction ([mov] chains propagate
    copies and constants; any other definition invalidates). *)

val operand : Graph.t -> int -> X64.Isa.mem -> X64.Isa.mem
(** [operand g index m]: the canonical form of [m] as seen by
    instruction [index].  Evaluates to the same address as [m] at that
    instruction, and at any earlier point of the block after which the
    canonical registers are not redefined.  Replays the block prefix on
    every call; {!operand_at} walks it once. *)

type cursor
(** A walk over the graph's blocks, for operand queries that come in
    increasing instruction order. *)

val cursor : Graph.t -> cursor

val operand_at : cursor -> int -> X64.Isa.mem -> X64.Isa.mem
(** [operand_at c index m] = [operand g index m].  Within a block a
    query at or after the previous one steps only the instructions in
    between, so a block's queries cost one walk of the block; any
    other query restarts at its block's first instruction. *)
