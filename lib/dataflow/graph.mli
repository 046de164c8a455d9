(** Explicit basic-block graph over a recovered instruction stream.

    Shared substrate of the rewriter's planning (batching, patch
    tactics, save specialization), of the dominator, liveness and
    availability analyses, and of the rewrite-soundness linter.  The
    rewriter and the linter's re-disassembly both build their graph
    with {!of_instrs}, so they plan and audit over the exact same block
    structure. *)

type block = {
  id : int;
  first : int;  (** index of the block's first instruction *)
  last : int;   (** index of the block's last instruction (inclusive) *)
  addr : int;
  term : X64.Isa.flow;
  mutable succs : int list;
      (** successor block ids, including direct-call target edges *)
  mutable fall_succs : int list;
      (** successors excluding call-target edges (liveness view:
          calls are summarized by the ABI, not traversed) *)
  mutable preds : int list;
}

type t = {
  stream : X64.Disasm.stream;
  base : int;  (** lowest instruction address *)
  index_of : int array;
      (** [addr - base] -> instruction index, [-1] where no instruction
          starts *)
  leader : bool array;  (** instruction index -> starts a leader *)
  roots : int list;
  blocks : block array;
  block_of : int array;
  rpo : int array;
  rpo_index : int array;
}

val of_instrs : entry:int -> X64.Disasm.stream -> t
(** The graph over an already-swept instruction stream (the rewriter
    sweeps once and reuses the stream for blueprint keying and
    emission).  Leaders are the entry, direct branch and call targets,
    the fall-throughs of branches, calls and block-ending transfers,
    and every code-pointer constant; the constants' blocks are roots.

    Precondition: the stream comes from one blob, as
    {!X64.Disasm.sweep_stream} produces it.  The address index is one
    [int] per byte of the stream's address span (lowest address to the
    end of the highest instruction), so instructions scattered far
    apart would make it as large as the gap. *)

val recover : entry:int -> string -> t
(** Linear-sweep [code] loaded at [entry] and build its graph.
    Recovery over-approximates leaders (paper §6): a spurious leader
    only splits a batch, while a missed one could move a check onto a
    path that never runs it. *)

val stream : t -> X64.Disasm.stream

val num_instrs : t -> int
val instr : t -> int -> X64.Isa.instr
(** The instruction at an index of the stream. *)

val addr : t -> int -> int
val len : t -> int -> int

val num_blocks : t -> int
val block : t -> int -> block
val block_of_instr : t -> int -> int
val index_at : t -> int -> int option
val is_leader : t -> int -> bool
val roots : t -> int list
val rpo : t -> int array

val reachable : t -> int -> bool
(** Reachable from some root along graph edges.  Unreachable blocks
    may still execute (indirect transfers the graph cannot see), so
    optimizations must treat them conservatively. *)
