(** Local static analyses feeding the rewriter's optimizations. *)

val scratch_needed : int
(** Scratch registers the trampoline needs when none are provably dead. *)

val eliminable : X64.Isa.mem -> len:int -> bool
(** The check-elimination rule (paper §6): no index register, and
    either no base (an absolute ≥ 2 GiB from the heap) or an
    rsp base (the stack is ≥ 2 GiB from the heap). *)

(** Result of the clobber scan at an instrumentation point. *)
type spec = { nsaves : int; save_flags : bool }

val conservative : spec

val clobbers :
  ?live:Dataflow.Live.t -> Dataflow.Graph.t -> start:int -> limit:int -> spec
(** Save-specialization at an instrumentation point: forward scan over
    [g]'s instructions from index [start] (at most [limit]
    instructions, stopping before the next block leader) for
    registers written before read — dead at the point, no save needed;
    likewise the flags.  A terminating call or indirect jump clobbers
    the caller-saved registers and the flags per the ABI; registers
    the local scan cannot classify fall back to the interblock
    liveness fact at the scan frontier when [live] is supplied, and
    stay conservatively live otherwise. *)
