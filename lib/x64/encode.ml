(** Binary encoder for x64l.

    The encoding is variable-length by design (see DESIGN.md): the
    rewriter's whole patching problem exists only because a [jmp rel32]
    occupies 5 bytes while the smallest instrumentable instruction
    occupies 4.  Layout per instruction: one opcode byte followed by
    operand bytes; memory operands use a flags byte + packed register
    byte + optional segment byte + 0/1/4 displacement bytes. *)

exception Encode_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Encode_error s)) fmt

let fits_i32 v = v >= -0x8000_0000 && v <= 0x7fff_ffff
let fits_i8 v = v >= -128 && v <= 127

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_i32 b v =
  if not (fits_i32 v) then err "immediate %d does not fit in 32 bits" v;
  put_u8 b v;
  put_u8 b (v asr 8);
  put_u8 b (v asr 16);
  put_u8 b (v asr 24)

let put_i64 b v =
  for k = 0 to 7 do put_u8 b (v asr (8 * k)) done

let alu_code = function
  | Isa.Add -> 0 | Isa.Sub -> 1 | Isa.And -> 2 | Isa.Or -> 3 | Isa.Xor -> 4

let shift_code = function Isa.Shl -> 0 | Isa.Shr -> 1 | Isa.Sar -> 2

let cc_code = function
  | Isa.Eq -> 0 | Isa.Ne -> 1 | Isa.Lt -> 2 | Isa.Le -> 3 | Isa.Gt -> 4
  | Isa.Ge -> 5 | Isa.Ult -> 6 | Isa.Ule -> 7 | Isa.Ugt -> 8 | Isa.Uge -> 9

let rtfn_code = function
  | Isa.Malloc -> 0 | Isa.Free -> 1 | Isa.Input -> 2 | Isa.Print -> 3
  | Isa.Exit -> 4

let width_code = function Isa.W1 -> 0 | Isa.W2 -> 1 | Isa.W4 -> 2 | Isa.W8 -> 3

let scale_log2 = function 1 -> 0 | 2 -> 1 | 4 -> 2 | 8 -> 3
  | s -> err "bad scale %d" s

let put_mem b (m : Isa.mem) =
  let disp_code =
    if m.disp = 0 then 0 else if fits_i8 m.disp then 1 else 2
  in
  let flags =
    (match m.base with Some _ -> 1 | None -> 0)
    lor (match m.idx with Some _ -> 2 | None -> 0)
    lor (scale_log2 m.scale lsl 2)
    lor (disp_code lsl 4)
    lor (if m.seg <> 0 then 0x40 else 0)
  in
  put_u8 b flags;
  (match (m.base, m.idx) with
   | None, None -> ()
   | b', i ->
     let bv = match b' with Some r -> r | None -> 0 in
     let iv = match i with Some r -> r | None -> 0 in
     put_u8 b ((bv lsl 4) lor iv));
  if m.seg <> 0 then put_u8 b m.seg;
  (match disp_code with
   | 0 -> ()
   | 1 -> put_u8 b m.disp
   | _ -> put_i32 b m.disp)

(* Opcode map.  Kept in one place so the decoder mirrors it exactly. *)
let op_mov_rr = 0x01
let op_mov_ri32 = 0x02
let op_mov_ri64 = 0x03
let op_load = 0x04
let op_store = 0x05
let op_store_i = 0x06
let op_lea = 0x07
let op_alu_rr = 0x10 (* .. 0x14 *)
let op_alu_ri = 0x18 (* .. 0x1c *)
let op_mul_rr = 0x20
let op_div_rr = 0x21
let op_rem_rr = 0x22
let op_neg = 0x23
let op_not = 0x24
let op_shift_ri = 0x28 (* .. 0x2a *)
let op_cmp_rr = 0x30
let op_cmp_ri = 0x31
let op_test_rr = 0x32
let op_setcc = 0x38
let op_jmp = 0x40
let op_jcc = 0x41
let op_call = 0x42
let op_ret = 0x43
let op_call_ind = 0x46
let op_jmp_ind = 0x47
let op_callrt = 0x45
let op_push = 0x50 (* .. 0x5f *)
let op_pop = 0x60 (* .. 0x6f *)
let op_nop = 0x90
let op_check = 0xe0
let op_probe = 0xe2
let op_trap = 0xcc
let op_hlt = 0xf4

(** [encode_at b addr i] appends the encoding of [i], assuming the
    instruction starts at virtual address [addr] (needed for the
    rel32 fields of direct control transfers). *)
let encode_at b (addr : int) (i : Isa.instr) : unit =
  let start = Buffer.length b in
  let rel32_slot op target extra_pre =
    (* total length = 1 (opcode) + List.length extra_pre + 4 *)
    put_u8 b op;
    List.iter (put_u8 b) extra_pre;
    let len = 1 + List.length extra_pre + 4 in
    put_i32 b (target - (addr + len))
  in
  (match i with
   | Mov_rr (d, s) -> put_u8 b op_mov_rr; put_u8 b ((d lsl 4) lor s)
   | Mov_ri (d, v) ->
     if fits_i32 v then (put_u8 b op_mov_ri32; put_u8 b d; put_i32 b v)
     else (put_u8 b op_mov_ri64; put_u8 b d; put_i64 b v)
   | Load (w, d, m) ->
     put_u8 b op_load; put_u8 b ((width_code w lsl 4) lor d); put_mem b m
   | Store (w, m, s) ->
     put_u8 b op_store; put_u8 b ((width_code w lsl 4) lor s); put_mem b m
   | Store_i (w, m, v) ->
     put_u8 b op_store_i; put_u8 b (width_code w lsl 4); put_mem b m;
     put_i32 b v
   | Lea (d, m) -> put_u8 b op_lea; put_u8 b d; put_mem b m
   | Alu_rr (op, d, s) ->
     put_u8 b (op_alu_rr + alu_code op); put_u8 b ((d lsl 4) lor s)
   | Alu_ri (op, d, v) ->
     put_u8 b (op_alu_ri + alu_code op); put_u8 b d; put_i32 b v
   | Mul_rr (d, s) -> put_u8 b op_mul_rr; put_u8 b ((d lsl 4) lor s)
   | Div_rr (d, s) -> put_u8 b op_div_rr; put_u8 b ((d lsl 4) lor s)
   | Rem_rr (d, s) -> put_u8 b op_rem_rr; put_u8 b ((d lsl 4) lor s)
   | Neg r -> put_u8 b op_neg; put_u8 b r
   | Not r -> put_u8 b op_not; put_u8 b r
   | Shift_ri (s, r, n) ->
     if n < 0 || n > 63 then err "shift amount %d" n;
     put_u8 b (op_shift_ri + shift_code s); put_u8 b r; put_u8 b n
   | Cmp_rr (a, c) -> put_u8 b op_cmp_rr; put_u8 b ((a lsl 4) lor c)
   | Cmp_ri (a, v) -> put_u8 b op_cmp_ri; put_u8 b a; put_i32 b v
   | Test_rr (a, c) -> put_u8 b op_test_rr; put_u8 b ((a lsl 4) lor c)
   | Setcc (cc, r) -> put_u8 b op_setcc; put_u8 b ((cc_code cc lsl 4) lor r)
   | Jmp t -> rel32_slot op_jmp t []
   | Jcc (cc, t) -> rel32_slot op_jcc t [ cc_code cc ]
   | Call t -> rel32_slot op_call t []
   | Call_ind r -> put_u8 b op_call_ind; put_u8 b r
   | Jmp_ind r -> put_u8 b op_jmp_ind; put_u8 b r
   | Ret -> put_u8 b op_ret
   | Push r -> put_u8 b (op_push + r)
   | Pop r -> put_u8 b (op_pop + r)
   | Callrt f -> put_u8 b op_callrt; put_u8 b (rtfn_code f)
   | Nop n ->
     if n < 1 then err "Nop %d" n;
     for _ = 1 to n do put_u8 b op_nop done
   | Hlt -> put_u8 b op_hlt
   | Trap -> put_u8 b op_trap
   | Probe id ->
     put_u8 b op_probe;
     put_i32 b id
   | Check c ->
     put_u8 b op_check;
     let flags =
       (match c.ck_variant with
        | Isa.Full -> 1
        | Isa.Redzone -> 0
        | Isa.Temporal -> 8)
       lor (if c.ck_write then 2 else 0)
       lor (if c.ck_save_flags then 4 else 0)
     in
     put_u8 b flags;
     put_u8 b c.ck_nsaves;
     put_mem b c.ck_mem;
     put_i32 b c.ck_lo;
     put_i32 b c.ck_hi;
     put_i32 b c.ck_site);
  ignore start

(** Encoded length of [i] in bytes.  Independent of the address for
    every instruction (rel32 fields are fixed-width).  The buffer is
    per call, so domains may encode concurrently. *)
let length (i : Isa.instr) : int =
  let b = Buffer.create 32 in
  encode_at b 0 i;
  Buffer.length b

(** Encode a straight-line sequence starting at [addr]; returns bytes. *)
let encode_seq ~(addr : int) (is : Isa.instr list) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun i ->
      let a = addr + Buffer.length b in
      encode_at b a i)
    is;
  Buffer.contents b
