(** Interblock backward liveness of registers and %eflags.

    Facts are bitmasks: bits 0..15 are the registers (by register id),
    bit 16 the flags.  Calls are summarized by the ABI (caller-saved
    registers and flags clobbered, arguments on the stack, result in
    %rax) rather than traversed. *)

type t

val flags_bit : int
val reg_bit : X64.Isa.reg -> int
val all_live : int

val caller_saved_mask : int
val callee_saved_mask : int

val transfer_instr : X64.Isa.instr -> int -> int
(** Live-before from live-after across one instruction. *)

val solve : Graph.t -> t

val live_in : t -> int -> int
(** Liveness at a block's entry, by block id. *)

val live_out : t -> int -> int
(** Liveness at a block's exit, by block id (exit blocks get their ABI
    boundary fact: only %rax, %rsp and the callee-saved registers
    survive a return; an indirect jump keeps everything live). *)

val live_before : t -> int -> int
(** Liveness immediately before an instruction, by instruction index. *)

val is_live : int -> X64.Isa.reg -> bool
val flags_live : int -> bool
