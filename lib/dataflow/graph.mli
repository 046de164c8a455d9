(** Explicit basic-block graph over a recovered instruction stream.

    Shared substrate of the rewriter's planning (batching, patch
    tactics, save specialization), of the dominator, liveness and
    availability analyses, and of the rewrite-soundness linter.  Leader
    recovery is exposed so the rewriter plans over the exact same
    block structure as the linter's re-disassembly. *)

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
  instrs : (int * X64.Isa.instr * int) array;
  index_of : (int, int) Hashtbl.t;
  leaders : (int, unit) Hashtbl.t;
  roots : int list;
  blocks : block array;
  block_of : int array;
  rpo : int array;
  rpo_index : int array;
}

val leaders :
  entry:int ->
  (int * X64.Isa.instr * int) array ->
  (int, unit) Hashtbl.t * (int, unit) Hashtbl.t
(** [leaders ~entry instrs]: (all leaders, potential indirect-transfer
    targets).  The single source of truth for block boundaries: the
    rewriter's graph and the linter's re-disassembly both come from
    here. *)

val of_instrs : entry:int -> (int * X64.Isa.instr * int) array -> t
(** The graph over an already-swept instruction array (the rewriter
    sweeps once and reuses the array for blueprint keying and
    emission). *)

val recover : entry:int -> string -> t
(** Linear-sweep [code] loaded at [entry] and build its graph.
    Recovery over-approximates leaders (paper §6): a spurious leader
    only splits a batch, while a missed one could move a check onto a
    path that never runs it. *)

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
