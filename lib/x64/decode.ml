(** Binary decoder for x64l; the exact inverse of {!Encode}.

    One call decodes one instruction with no cursor record and no
    closures: every field is read at an explicit offset from the
    instruction's first byte, and the opcode is matched as a literal
    byte.  The literals are checked against {!Encode}'s opcode
    constants when the module is loaded.  Fields are read, and
    validated, in encoding order, so the first bad or missing byte is
    the one reported. *)

exception Decode_error of { addr : int; byte : int }

(* a field runs past the end of the buffer: reported at the
   instruction's address, with no byte to show *)
let truncated addr = raise (Decode_error { addr; byte = -1 })

(* byte [p] of [buf]; [p >= 0] holds because [decode] checks [off] *)
let u8 buf p addr =
  if p < String.length buf then Char.code (String.unsafe_get buf p)
  else truncated addr

let i8 buf p addr =
  let v = u8 buf p addr in
  if v > 127 then v - 256 else v

let i32 buf p addr =
  if p + 4 > String.length buf then truncated addr
  else
    let v =
      Char.code (String.unsafe_get buf p)
      lor (Char.code (String.unsafe_get buf (p + 1)) lsl 8)
      lor (Char.code (String.unsafe_get buf (p + 2)) lsl 16)
      lor (Char.code (String.unsafe_get buf (p + 3)) lsl 24)
    in
    if v > 0x7fff_ffff then v - (1 lsl 32) else v

(* two little-endian halves; the high bit of the 64-bit value is lost,
   as [Int64.to_int] loses it *)
let i64 buf p addr =
  if p + 8 > String.length buf then truncated addr
  else (i32 buf p addr land 0xffff_ffff) lor (i32 buf (p + 4) addr lsl 32)

let alu_of = function
  | 0 -> Isa.Add | 1 -> Isa.Sub | 2 -> Isa.And | 3 -> Isa.Or | _ -> Isa.Xor

let shift_of = function 0 -> Isa.Shl | 1 -> Isa.Shr | _ -> Isa.Sar

let cc_of = function
  | 0 -> Isa.Eq | 1 -> Isa.Ne | 2 -> Isa.Lt | 3 -> Isa.Le | 4 -> Isa.Gt
  | 5 -> Isa.Ge | 6 -> Isa.Ult | 7 -> Isa.Ule | 8 -> Isa.Ugt | _ -> Isa.Uge

let rtfn_of addr = function
  | 0 -> Isa.Malloc | 1 -> Isa.Free | 2 -> Isa.Input | 3 -> Isa.Print
  | 4 -> Isa.Exit
  | b -> raise (Decode_error { addr; byte = b })

let width_of = function 0 -> Isa.W1 | 1 -> Isa.W2 | 2 -> Isa.W4 | _ -> Isa.W8

(* The commonest register-only instructions from tables built once:
   the decoder hands out one shared immutable value per operand
   combination instead of allocating one per decoded instruction.
   [mov_rr_tbl.(b)] is the move whose packed register byte is [b].
   The other register forms are rarer, and tables for all of them
   (about 14k words, live for the whole process) raised the fuzz
   workload's peak major heap by 15%. *)
let push_tbl = Array.init Isa.num_regs (fun r -> Isa.Push r)
let pop_tbl = Array.init Isa.num_regs (fun r -> Isa.Pop r)
let mov_rr_tbl = Array.init 256 (fun b -> Isa.Mov_rr (b lsr 4, b land 0xf))

(* a full-byte register field must name a real register *)
let reg buf p addr =
  let b = u8 buf p addr in
  if b < Isa.num_regs then b else raise (Decode_error { addr; byte = b })

(* A memory operand at [p]: a flags byte, then a packed base/index
   byte, a segment byte and 0, 1 or 4 displacement bytes, each only
   when the flags call for it. *)
let mem_len flags =
  1
  + (if flags land 3 <> 0 then 1 else 0)
  + (if flags land 0x40 <> 0 then 1 else 0)
  + match (flags lsr 4) land 3 with 0 -> 0 | 1 -> 1 | _ -> 4

let mem buf p addr : Isa.mem =
  let flags = u8 buf p addr in
  let has_base = flags land 1 <> 0 and has_idx = flags land 2 <> 0 in
  let rb = if has_base || has_idx then u8 buf (p + 1) addr else 0 in
  let q = if has_base || has_idx then p + 2 else p + 1 in
  let seg = if flags land 0x40 <> 0 then u8 buf q addr else 0 in
  let q = if flags land 0x40 <> 0 then q + 1 else q in
  let disp =
    match (flags lsr 4) land 3 with
    | 0 -> 0
    | 1 -> i8 buf q addr
    | _ -> i32 buf q addr
  in
  {
    Isa.seg;
    disp;
    base = (if has_base then Isa.some_reg (rb lsr 4) else None);
    idx = (if has_idx then Isa.some_reg (rb land 0xf) else None);
    scale = 1 lsl ((flags lsr 2) land 3);
  }

(* the flags byte of the operand at [p], once [mem] has read it *)
let mem_bytes buf p = mem_len (Char.code (String.unsafe_get buf p))

(** [decode ~addr buf off] decodes one instruction whose first byte is
    [buf.[off]] and whose virtual address is [addr].  Returns the
    instruction and its encoded length. *)
let decode ~(addr : int) (buf : string) (off : int) : Isa.instr * int =
  if off < 0 then invalid_arg "index out of bounds";
  let op = u8 buf off addr in
  let p = off + 1 in
  match Char.unsafe_chr op with
  | '\x50' .. '\x5f' -> (push_tbl.(op - 0x50), 1)
  | '\x60' .. '\x6f' -> (pop_tbl.(op - 0x60), 1)
  | '\x10' .. '\x14' ->
    let b = u8 buf p addr in
    (Alu_rr (alu_of (op - 0x10), b lsr 4, b land 0xf), 2)
  | '\x18' .. '\x1c' ->
    let d = reg buf p addr in
    (Alu_ri (alu_of (op - 0x18), d, i32 buf (p + 1) addr), 6)
  | '\x28' .. '\x2a' ->
    let r = reg buf p addr in
    let n = u8 buf (p + 1) addr in
    if n > 63 then raise (Decode_error { addr; byte = n });
    (Shift_ri (shift_of (op - 0x28), r, n), 3)
  | '\x01' -> (mov_rr_tbl.(u8 buf p addr), 2)
  | '\x02' ->
    let d = reg buf p addr in
    (Mov_ri (d, i32 buf (p + 1) addr), 6)
  | '\x03' ->
    let d = reg buf p addr in
    (Mov_ri (d, i64 buf (p + 1) addr), 10)
  | '\x04' ->
    let b = u8 buf p addr in
    let m = mem buf (p + 1) addr in
    (Load (width_of (b lsr 4), b land 0xf, m), 2 + mem_bytes buf (p + 1))
  | '\x05' ->
    let b = u8 buf p addr in
    let m = mem buf (p + 1) addr in
    (Store (width_of (b lsr 4), m, b land 0xf), 2 + mem_bytes buf (p + 1))
  | '\x06' ->
    let b = u8 buf p addr in
    let m = mem buf (p + 1) addr in
    let q = p + 1 + mem_bytes buf (p + 1) in
    (Store_i (width_of (b lsr 4), m, i32 buf q addr), q + 4 - off)
  | '\x07' ->
    let d = reg buf p addr in
    let m = mem buf (p + 1) addr in
    (Lea (d, m), 2 + mem_bytes buf (p + 1))
  | '\x20' ->
    let b = u8 buf p addr in
    (Mul_rr (b lsr 4, b land 0xf), 2)
  | '\x21' ->
    let b = u8 buf p addr in
    (Div_rr (b lsr 4, b land 0xf), 2)
  | '\x22' ->
    let b = u8 buf p addr in
    (Rem_rr (b lsr 4, b land 0xf), 2)
  | '\x23' -> (Neg (reg buf p addr), 2)
  | '\x24' -> (Not (reg buf p addr), 2)
  | '\x30' ->
    let b = u8 buf p addr in
    (Cmp_rr (b lsr 4, b land 0xf), 2)
  | '\x31' ->
    let a = reg buf p addr in
    (Cmp_ri (a, i32 buf (p + 1) addr), 6)
  | '\x32' ->
    let b = u8 buf p addr in
    (Test_rr (b lsr 4, b land 0xf), 2)
  | '\x38' ->
    let b = u8 buf p addr in
    (Setcc (cc_of (b lsr 4), b land 0xf), 2)
  | '\x40' -> (Jmp (addr + 5 + i32 buf p addr), 5)
  | '\x41' ->
    let cc = cc_of (u8 buf p addr) in
    (Jcc (cc, addr + 6 + i32 buf (p + 1) addr), 6)
  | '\x42' -> (Call (addr + 5 + i32 buf p addr), 5)
  | '\x46' -> (Call_ind (reg buf p addr), 2)
  | '\x47' -> (Jmp_ind (reg buf p addr), 2)
  | '\x43' -> (Ret, 1)
  | '\x45' -> (Callrt (rtfn_of addr (u8 buf p addr)), 2)
  | '\x90' -> (Nop 1, 1)
  | '\xf4' -> (Hlt, 1)
  | '\xcc' -> (Trap, 1)
  | '\xe2' -> (Probe (i32 buf p addr), 5)
  | '\xe0' ->
    let flags = u8 buf p addr in
    let nsaves = u8 buf (p + 1) addr in
    let m = mem buf (p + 2) addr in
    let q = p + 2 + mem_bytes buf (p + 2) in
    let lo = i32 buf q addr in
    let hi = i32 buf (q + 4) addr in
    let site = i32 buf (q + 8) addr in
    ( Check
        {
          ck_variant =
            (if flags land 1 <> 0 then Isa.Full
             else if flags land 8 <> 0 then Isa.Temporal
             else Isa.Redzone);
          ck_mem = m;
          ck_lo = lo;
          ck_hi = hi;
          ck_write = flags land 2 <> 0;
          ck_site = site;
          ck_nsaves = nsaves;
          ck_save_flags = flags land 4 <> 0;
        },
      q + 12 - off )
  | _ -> raise (Decode_error { addr; byte = op })

(* [decode]'s literal opcodes (each range's first and last byte) are
   {!Encode}'s: the opcode map has one source *)
let () =
  assert (
    List.for_all
      (fun (lit, op) -> Char.code lit = op)
      Encode.
        [
          ('\x50', op_push); ('\x5f', op_push + Isa.num_regs - 1);
          ('\x60', op_pop); ('\x6f', op_pop + Isa.num_regs - 1);
          ('\x10', op_alu_rr); ('\x14', op_alu_rr + 4);
          ('\x18', op_alu_ri); ('\x1c', op_alu_ri + 4);
          ('\x28', op_shift_ri); ('\x2a', op_shift_ri + 2);
          ('\x01', op_mov_rr); ('\x02', op_mov_ri32); ('\x03', op_mov_ri64);
          ('\x04', op_load); ('\x05', op_store); ('\x06', op_store_i);
          ('\x07', op_lea); ('\x20', op_mul_rr); ('\x21', op_div_rr);
          ('\x22', op_rem_rr); ('\x23', op_neg); ('\x24', op_not);
          ('\x30', op_cmp_rr); ('\x31', op_cmp_ri); ('\x32', op_test_rr);
          ('\x38', op_setcc); ('\x40', op_jmp); ('\x41', op_jcc);
          ('\x42', op_call); ('\x46', op_call_ind); ('\x47', op_jmp_ind);
          ('\x43', op_ret); ('\x45', op_callrt); ('\x90', op_nop);
          ('\xf4', op_hlt); ('\xcc', op_trap); ('\xe2', op_probe);
          ('\xe0', op_check);
        ])
