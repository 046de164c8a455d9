(** The x64l instruction set: an x86-64-like, variable-length ISA.

    x64l reproduces the three properties of x86-64 that the RedFat /
    E9Patch rewriting problem depends on: variable instruction length
    (1-14 bytes, with a 5-byte [jmp rel32]), the 5-tuple memory operand
    [seg:disp(base,idx,scale)], and the absence of any type or symbol
    information in encoded code.  See DESIGN.md for the substitution
    rationale. *)

type reg = int
(** General-purpose register id, [0..15].  Numbering follows x86-64. *)

let rax = 0
let rcx = 1
let rdx = 2
let rbx = 3
let rsp = 4
let rbp = 5
let rsi = 6
let rdi = 7
let r8 = 8
let r9 = 9
let r10 = 10
let r11 = 11
let r12 = 12
let r13 = 13
let r14 = 14
let r15 = 15

let num_regs = 16

let reg_name (r : reg) : string =
  match r with
  | 0 -> "rax" | 1 -> "rcx" | 2 -> "rdx" | 3 -> "rbx"
  | 4 -> "rsp" | 5 -> "rbp" | 6 -> "rsi" | 7 -> "rdi"
  | 8 -> "r8" | 9 -> "r9" | 10 -> "r10" | 11 -> "r11"
  | 12 -> "r12" | 13 -> "r13" | 14 -> "r14" | 15 -> "r15"
  | _ -> invalid_arg "Isa.reg_name"

(** Memory access width in bytes. *)
type width = W1 | W2 | W4 | W8

let width_bytes = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8
let width_of_bytes = function
  | 1 -> W1 | 2 -> W2 | 4 -> W4 | 8 -> W8
  | n -> invalid_arg (Printf.sprintf "Isa.width_of_bytes %d" n)

(** A memory operand: the 5-tuple [seg:disp(base,idx,scale)] of paper
    section 4.1.  Semantically it denotes the address
    [seg + disp + base + idx * scale] with omitted components zero
    (scale defaults to 1). *)
type mem = {
  seg : int;            (** segment id; 0 = none *)
  disp : int;           (** 32-bit signed displacement *)
  base : reg option;
  idx : reg option;
  scale : int;          (** 1, 2, 4 or 8 *)
}

let mem ?(seg = 0) ?(disp = 0) ?base ?idx ?(scale = 1) () =
  (match scale with
   | 1 | 2 | 4 | 8 -> ()
   | _ -> invalid_arg "Isa.mem: scale must be 1, 2, 4 or 8");
  { seg; disp; base; idx; scale }

type alu = Add | Sub | And | Or | Xor

type shift = Shl | Shr | Sar

(** Condition codes over the flags set by [Cmp]/[Test]/ALU ops.
    [Lt]..[Ge] are signed; [Ult]..[Uge] unsigned. *)
type cc = Eq | Ne | Lt | Le | Gt | Ge | Ult | Ule | Ugt | Uge

let cc_negate = function
  | Eq -> Ne | Ne -> Eq
  | Lt -> Ge | Ge -> Lt | Le -> Gt | Gt -> Le
  | Ult -> Uge | Uge -> Ult | Ule -> Ugt | Ugt -> Ule

(** Runtime functions reachable via [Callrt] (the simulated PLT: in a
    real binary these are calls into the LD_PRELOAD'ed libredfat.so or
    libc).  Arguments in rdi/rsi, result in rax. *)
type rtfn = Malloc | Free | Input | Print | Exit

(** Check variants, paper Figure 4.  [Full] is the complementary
    (Redzone)+(LowFat) check: the object base is derived from the
    *pointer register* first, falling back to the accessed address.
    [Redzone] derives the base from the accessed address only.
    [Temporal] is the lock-and-key temporal check: the pointer's
    high-bit key must match the slot's lock-table entry. *)
type variant = Full | Redzone | Temporal

(** Payload of the instrumentation pseudo-instruction placed in
    trampolines by the rewriter.  One [Check] may guard several merged
    accesses: it covers the displacement range [lo, hi) relative to
    [seg + base + idx*scale]. *)
type check = {
  ck_variant : variant;
  ck_mem : mem;             (** representative operand (disp ignored) *)
  ck_lo : int;              (** lowest displacement accessed *)
  ck_hi : int;              (** highest displacement + access size *)
  ck_write : bool;          (** true if any guarded access writes *)
  ck_site : int;            (** address of the guarded instruction *)
  ck_nsaves : int;          (** scratch registers to save/restore *)
  ck_save_flags : bool;     (** preserve %eflags around the check *)
}

type instr =
  | Mov_rr of reg * reg                 (* dst <- src *)
  | Mov_ri of reg * int                 (* dst <- imm *)
  | Load of width * reg * mem           (* dst <- [mem], zero-extended *)
  | Store of width * mem * reg          (* [mem] <- src *)
  | Store_i of width * mem * int        (* [mem] <- imm32 *)
  | Lea of reg * mem                    (* dst <- address of mem *)
  | Alu_rr of alu * reg * reg           (* dst <- dst op src; sets flags *)
  | Alu_ri of alu * reg * int           (* dst <- dst op imm32; sets flags *)
  | Mul_rr of reg * reg                 (* dst <- dst * src *)
  | Div_rr of reg * reg                 (* dst <- dst / src, unsigned *)
  | Rem_rr of reg * reg                 (* dst <- dst mod src, unsigned *)
  | Neg of reg
  | Not of reg
  | Shift_ri of shift * reg * int
  | Cmp_rr of reg * reg                 (* sets flags *)
  | Cmp_ri of reg * int                 (* sets flags *)
  | Test_rr of reg * reg                (* sets flags *)
  | Setcc of cc * reg                   (* dst <- flags[cc] ? 1 : 0 *)
  | Jmp of int                          (* absolute target, rel32-encoded *)
  | Jcc of cc * int
  | Call of int
  | Call_ind of reg                     (* call through a register *)
  | Jmp_ind of reg                      (* jump through a register *)
  | Ret
  | Push of reg
  | Pop of reg
  | Callrt of rtfn
  | Nop of int                          (* n >= 1 padding bytes *)
  | Hlt
  | Trap                                (* 1-byte; VM consults trap table *)
  | Check of check                      (* pseudo; trampolines only *)
  | Probe of int                        (* generic instrumentation point
                                           (E9Tool-style payload id) *)

(* ------------------------------------------------------------------ *)
(* Static properties used by the rewriter's analyses.                  *)

(** The explicit memory operand of an instruction, with access width and
    direction, if any.  [Push]/[Pop]/[Call]/[Ret] access stack memory
    implicitly but carry no operand; like RedFat, the rewriter only
    instruments explicit operands. *)
let mem_operand = function
  | Load (w, _, m) -> Some (m, w, false)
  | Store (w, m, _) -> Some (m, w, true)
  | Store_i (w, m, _) -> Some (m, w, true)
  | _ -> None

(* [Some r] for every register, shared: decoders and operand rewriters
   name a register without allocating an option *)
let some_regs = Array.init num_regs Option.some

let some_reg (r : reg) : reg option = some_regs.(r)

let bit (r : reg) = 1 lsl r

let mem_use_mask (m : mem) : int =
  (match m.base with Some r -> bit r | None -> 0)
  lor match m.idx with Some r -> bit r | None -> 0

(** Registers read by the instruction, as a mask with bit [r] for
    register [r] (excluding implicit rsp of push/pop, which is handled
    specially where it matters).  Allocates nothing. *)
let use_mask = function
  | Mov_rr (_, s) -> bit s
  | Mov_ri _ -> 0
  | Load (_, _, m) -> mem_use_mask m
  | Store (_, m, s) -> bit s lor mem_use_mask m
  | Store_i (_, m, _) -> mem_use_mask m
  | Lea (_, m) -> mem_use_mask m
  | Alu_rr (_, d, s) -> bit d lor bit s
  | Alu_ri (_, d, _) -> bit d
  | Mul_rr (d, s) | Div_rr (d, s) | Rem_rr (d, s) -> bit d lor bit s
  | Neg r | Not r -> bit r
  | Shift_ri (_, r, _) -> bit r
  | Cmp_rr (a, b) | Test_rr (a, b) -> bit a lor bit b
  | Cmp_ri (a, _) -> bit a
  | Setcc _ -> 0
  | Jmp _ | Jcc _ | Call _ | Ret -> 0
  | Call_ind r | Jmp_ind r -> bit r
  | Push r -> bit r lor bit rsp
  | Pop _ -> bit rsp
  | Callrt _ -> bit rdi lor bit rsi
  | Nop _ | Hlt | Trap -> 0
  | Probe _ -> 0
  | Check c -> mem_use_mask c.ck_mem

(** Registers written by the instruction, as a mask like {!use_mask}. *)
let def_mask = function
  | Mov_rr (d, _) | Mov_ri (d, _) | Load (_, d, _) | Lea (d, _) -> bit d
  | Store _ | Store_i _ -> 0
  | Alu_rr (_, d, _) | Alu_ri (_, d, _) -> bit d
  | Mul_rr (d, _) | Div_rr (d, _) | Rem_rr (d, _) -> bit d
  | Neg d | Not d -> bit d
  | Shift_ri (_, d, _) -> bit d
  | Cmp_rr _ | Cmp_ri _ | Test_rr _ -> 0
  | Setcc (_, d) -> bit d
  | Jmp _ | Jcc _ | Call _ | Ret -> 0
  | Call_ind _ | Jmp_ind _ -> 0
  | Push _ -> bit rsp
  | Pop d -> bit d lor bit rsp
  | Callrt _ -> bit rax
  | Nop _ | Hlt | Trap -> 0
  | Probe _ -> 0
  | Check _ -> 0

(** Control continues at the next instruction and nowhere else: the
    instructions whose {!flow_of} is [Fall], without building it. *)
let falls_through = function
  | Jmp _ | Jcc _ | Call _ | Call_ind _ | Jmp_ind _ | Ret | Hlt -> false
  | _ -> true

(** A call into program code, direct or indirect (not [Callrt]). *)
let is_call = function Call _ | Call_ind _ -> true | _ -> false

let writes_flags = function
  | Alu_rr _ | Alu_ri _ | Mul_rr _ | Div_rr _ | Rem_rr _ | Neg _
  | Shift_ri _ | Cmp_rr _ | Cmp_ri _ | Test_rr _ -> true
  | _ -> false

let reads_flags = function Jcc _ | Setcc _ -> true | _ -> false

(** Control-flow classification used by CFG recovery. *)
type flow =
  | Fall                       (* falls through to the next instruction *)
  | Branch of int              (* conditional: target + fall-through *)
  | Goto of int                (* unconditional direct jump *)
  | To_call of int             (* direct call: target + return fall-through *)
  | Dyn_call                   (* indirect call: unknown target, returns *)
  | Dyn_goto                   (* indirect jump: unknown target *)
  | Stop                       (* ret / hlt: no static successor *)

let flow_of = function
  | Jmp t -> Goto t
  | Jcc (_, t) -> Branch t
  | Call t -> To_call t
  | Call_ind _ -> Dyn_call
  | Jmp_ind _ -> Dyn_goto
  | Ret | Hlt -> Stop
  | _ -> Fall
