(* Encoder/decoder round-trip and assembler tests. *)

open X64

let check_roundtrip ?(addr = 0x400000) (i : Isa.instr) =
  let b = Buffer.create 32 in
  Encode.encode_at b addr i;
  let s = Buffer.contents b in
  let i', len = Decode.decode ~addr s 0 in
  Alcotest.(check int) "length" (String.length s) len;
  if i' <> i then
    Alcotest.failf "round-trip: %s became %s" (Disasm.to_string i)
      (Disasm.to_string i')

let sample_mems =
  [
    Isa.mem ();
    Isa.mem ~disp:8 ~base:Isa.rax ();
    Isa.mem ~disp:(-8) ~base:Isa.rsp ();
    Isa.mem ~disp:0x1234 ~base:Isa.rbx ~idx:Isa.rcx ~scale:8 ();
    Isa.mem ~disp:(-0x10000) ~idx:Isa.r15 ~scale:4 ();
    Isa.mem ~seg:1 ~disp:127 ~base:Isa.r8 ();
    Isa.mem ~disp:0x601000 ();
  ]

let test_roundtrip_samples () =
  let open Isa in
  let instrs =
    [
      Mov_rr (rax, rbx);
      Mov_ri (rcx, 42);
      Mov_ri (rcx, -1);
      Mov_ri (rdx, 0x12_3456_7890);
      Lea (rsi, mem ~disp:16 ~base:rsp ());
      Alu_rr (Add, rax, r9);
      Alu_ri (Sub, rsp, 64);
      Mul_rr (rax, rbx);
      Div_rr (rax, rcx);
      Rem_rr (r10, r11);
      Neg r9;
      Not r12;
      Shift_ri (Shl, rax, 3);
      Shift_ri (Sar, rbx, 63);
      Cmp_rr (rax, rbx);
      Cmp_ri (rax, -5);
      Test_rr (r8, r8);
      Setcc (Ult, rax);
      Jmp 0x400100;
      Jcc (Ne, 0x3fff00);
      Call 0x400050;
      Call_ind rax;
      Jmp_ind r11;
      Ret;
      Push rbp;
      Pop r15;
      Callrt Malloc;
      Callrt Exit;
      Nop 1;
      Hlt;
      Trap;
    ]
    @ List.concat_map
        (fun m ->
          [
            Load (W8, rax, m); Load (W1, r9, m); Store (W8, m, rbx);
            Store (W4, m, r14); Store_i (W8, m, 1234); Store_i (W1, m, -1);
          ])
        sample_mems
  in
  List.iter check_roundtrip instrs

let test_check_roundtrip () =
  let ck =
    {
      Isa.ck_variant = Isa.Full;
      ck_mem = Isa.mem ~base:Isa.rbx ~idx:Isa.rcx ~scale:8 ();
      ck_lo = -16;
      ck_hi = 24;
      ck_write = true;
      ck_site = 0x401234;
      ck_nsaves = 3;
      ck_save_flags = true;
    }
  in
  check_roundtrip (Isa.Check ck);
  check_roundtrip
    (Isa.Check
       { ck with ck_variant = Isa.Redzone; ck_write = false;
         ck_nsaves = 0; ck_save_flags = false });
  check_roundtrip
    (Isa.Check { ck with ck_variant = Isa.Temporal; ck_nsaves = 1 })

let test_jmp_is_5_bytes () =
  (* the whole patching problem rests on this *)
  Alcotest.(check int) "jmp rel32" 5 (Encode.length (Isa.Jmp 0));
  Alcotest.(check int) "call rel32" 5 (Encode.length (Isa.Call 0));
  Alcotest.(check int) "jcc rel32" 6 (Encode.length (Isa.Jcc (Isa.Eq, 0)));
  Alcotest.(check int) "push" 1 (Encode.length (Isa.Push Isa.rax));
  Alcotest.(check int) "trap" 1 (Encode.length Isa.Trap)

let test_mem_instr_lengths () =
  (* the smallest instrumentable instruction is 4 bytes: shorter than a
     jmp, which is what forces the eviction/trap tactics *)
  let small = Isa.Store (Isa.W8, Isa.mem ~base:Isa.r8 ~idx:Isa.r9 ~scale:8 (), Isa.r10) in
  Alcotest.(check int) "indexed store" 4 (Encode.length small);
  let len =
    Encode.length
      (Isa.Store (Isa.W8, Isa.mem ~disp:0x1000 ~base:Isa.r8 ~idx:Isa.r9 ~scale:8 (), Isa.r10))
  in
  Alcotest.(check int) "disp32 store" 8 len

let test_assembler_labels () =
  let items =
    [
      Asm.Label "start";
      Asm.I (Isa.Mov_ri (Isa.rax, 0));
      Asm.Label "loop";
      Asm.I (Isa.Alu_ri (Isa.Add, Isa.rax, 1));
      Asm.I (Isa.Cmp_ri (Isa.rax, 10));
      Asm.Jcc_l (Isa.Lt, "loop");
      Asm.Jmp_l "end";
      Asm.I Isa.Hlt;
      Asm.Label "end";
      Asm.I Isa.Ret;
    ]
  in
  let code, labels = Asm.assemble ~origin:0x400000 items in
  Alcotest.(check bool) "start at origin" true
    (Hashtbl.find labels "start" = 0x400000);
  (* decode the whole stream back *)
  let s = Disasm.sweep_stream ~addr:0x400000 code in
  Alcotest.(check int) "instruction count" 7 (Disasm.length s);
  (* the backward branch must target the loop label *)
  (match s.instrs.(3) with
   | Isa.Jcc (Isa.Lt, t) ->
     Alcotest.(check int) "jcc target" (Hashtbl.find labels "loop") t
   | i -> Alcotest.failf "expected jcc, got %s" (Disasm.to_string i))

let test_duplicate_label () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore (Asm.assemble ~origin:0 [ Asm.Label "x"; Asm.Label "x" ]))

let test_undefined_label () =
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nope") (fun () ->
      ignore (Asm.assemble ~origin:0 [ Asm.Jmp_l "nope" ]))

(* --- qcheck property: arbitrary instructions survive the round trip *)

let gen_reg = QCheck.Gen.int_range 0 15

let gen_mem =
  let open QCheck.Gen in
  let* disp = oneof [ return 0; int_range (-128) 127; int_range (-100000) 100000 ] in
  let* base = opt gen_reg in
  let* idx = opt gen_reg in
  let* scale = oneofl [ 1; 2; 4; 8 ] in
  let* seg = oneofl [ 0; 0; 0; 1; 2 ] in
  return (Isa.mem ~seg ~disp ?base ?idx ~scale ())

let gen_width = QCheck.Gen.oneofl [ Isa.W1; Isa.W2; Isa.W4; Isa.W8 ]

let gen_instr =
  let open QCheck.Gen in
  let open Isa in
  oneof
    [
      (let* d = gen_reg and* s = gen_reg in
       return (Mov_rr (d, s)));
      (let* d = gen_reg and* v = oneof [ int_range (-1000) 1000; int_bound (1 lsl 40) ] in
       return (Mov_ri (d, v)));
      (let* w = gen_width and* d = gen_reg and* m = gen_mem in
       return (Load (w, d, m)));
      (let* w = gen_width and* m = gen_mem and* s = gen_reg in
       return (Store (w, m, s)));
      (let* w = gen_width and* m = gen_mem and* v = int_range (-1000) 1000 in
       return (Store_i (w, m, v)));
      (let* d = gen_reg and* m = gen_mem in
       return (Lea (d, m)));
      (let* op = oneofl [ Add; Sub; And; Or; Xor ]
       and* d = gen_reg
       and* s = gen_reg in
       return (Alu_rr (op, d, s)));
      (let* op = oneofl [ Add; Sub; And; Or; Xor ]
       and* d = gen_reg
       and* v = int_range (-100000) 100000 in
       return (Alu_ri (op, d, v)));
      (let* s = oneofl [ Shl; Shr; Sar ] and* r = gen_reg and* n = int_range 0 63 in
       return (Shift_ri (s, r, n)));
      (let* r = gen_reg in
       return (Push r));
      (let* r = gen_reg in
       return (Pop r));
      (let* t = int_range 0x300000 0x500000 in
       return (Jmp t));
      (let* cc = oneofl [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ]
       and* t = int_range 0x300000 0x500000 in
       return (Jcc (cc, t)));
    ]

let prop_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"encode/decode round-trip"
    (QCheck.make gen_instr ~print:Disasm.to_string)
    (fun i ->
      let b = Buffer.create 32 in
      Encode.encode_at b 0x400000 i;
      let s = Buffer.contents b in
      let i', len = Decode.decode ~addr:0x400000 s 0 in
      i = i' && len = String.length s)

let prop_seq_roundtrip =
  QCheck.Test.make ~count:300 ~name:"instruction stream linear sweep"
    QCheck.(make Gen.(list_size (int_range 1 40) gen_instr))
    (fun is ->
      let code = Encode.encode_seq ~addr:0x400000 is in
      let swept = Reference.sweep_list ~addr:0x400000 code in
      List.length swept = List.length is
      && List.for_all2 (fun (_, i', _) i -> i = i') swept is)

(* --- the decoder against a reference copy of its cursor-based
   predecessor (truncation reported at the instruction's address) --- *)

module Ref_decode = struct
  exception Truncated

  type cursor = { buf : string; mutable pos : int }

  let u8 c =
    if c.pos >= String.length c.buf then raise Truncated;
    let v = Char.code c.buf.[c.pos] in
    c.pos <- c.pos + 1;
    v

  let i8 c =
    let v = u8 c in
    if v > 127 then v - 256 else v

  let i32 c =
    let b0 = u8 c in
    let b1 = u8 c in
    let b2 = u8 c in
    let b3 = u8 c in
    let v = b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) in
    if v > 0x7fff_ffff then v - (1 lsl 32) else v

  let i64 c =
    let lo = Int64.of_int (i32 c) in
    let hi = Int64.of_int (i32 c) in
    Int64.to_int
      (Int64.logor (Int64.logand lo 0xffff_ffffL) (Int64.shift_left hi 32))

  let alu_of = function
    | 0 -> Isa.Add | 1 -> Isa.Sub | 2 -> Isa.And | 3 -> Isa.Or | _ -> Isa.Xor

  let shift_of = function 0 -> Isa.Shl | 1 -> Isa.Shr | _ -> Isa.Sar

  let cc_of = function
    | 0 -> Isa.Eq | 1 -> Isa.Ne | 2 -> Isa.Lt | 3 -> Isa.Le | 4 -> Isa.Gt
    | 5 -> Isa.Ge | 6 -> Isa.Ult | 7 -> Isa.Ule | 8 -> Isa.Ugt | _ -> Isa.Uge

  let rtfn_of addr = function
    | 0 -> Isa.Malloc | 1 -> Isa.Free | 2 -> Isa.Input | 3 -> Isa.Print
    | 4 -> Isa.Exit
    | b -> raise (Decode.Decode_error { addr; byte = b })

  let width_of = function 0 -> Isa.W1 | 1 -> Isa.W2 | 2 -> Isa.W4 | _ -> Isa.W8

  let reg_checked addr b =
    if b < Isa.num_regs then b
    else raise (Decode.Decode_error { addr; byte = b })

  let get_mem c : Isa.mem =
    let flags = u8 c in
    let has_base = flags land 1 <> 0 in
    let has_idx = flags land 2 <> 0 in
    let scale = 1 lsl ((flags lsr 2) land 3) in
    let disp_code = (flags lsr 4) land 3 in
    let has_seg = flags land 0x40 <> 0 in
    let base, idx =
      if has_base || has_idx then begin
        let rb = u8 c in
        ( (if has_base then Some (rb lsr 4) else None),
          if has_idx then Some (rb land 0xf) else None )
      end
      else (None, None)
    in
    let seg = if has_seg then u8 c else 0 in
    let disp = match disp_code with 0 -> 0 | 1 -> i8 c | _ -> i32 c in
    { Isa.seg; disp; base; idx; scale }

  let decode_exn ~addr buf off : Isa.instr * int =
    let c = { buf; pos = off } in
    let op = u8 c in
    let regpair () =
      let b = u8 c in
      (b lsr 4, b land 0xf)
    in
    let rel32 () =
      let r = i32 c in
      addr + (c.pos - off) + r
    in
    let i : Isa.instr =
      if op >= Encode.op_push && op < Encode.op_push + 16 then
        Push (op - Encode.op_push)
      else if op >= Encode.op_pop && op < Encode.op_pop + 16 then
        Pop (op - Encode.op_pop)
      else if op >= Encode.op_alu_rr && op < Encode.op_alu_rr + 5 then begin
        let d, s = regpair () in
        Alu_rr (alu_of (op - Encode.op_alu_rr), d, s)
      end
      else if op >= Encode.op_alu_ri && op < Encode.op_alu_ri + 5 then begin
        let d = reg_checked addr (u8 c) in
        let v = i32 c in
        Alu_ri (alu_of (op - Encode.op_alu_ri), d, v)
      end
      else if op >= Encode.op_shift_ri && op < Encode.op_shift_ri + 3 then begin
        let r = reg_checked addr (u8 c) in
        let n = u8 c in
        if n > 63 then raise (Decode.Decode_error { addr; byte = n });
        Shift_ri (shift_of (op - Encode.op_shift_ri), r, n)
      end
      else
        match op with
        | o when o = Encode.op_mov_rr ->
          let d, s = regpair () in
          Mov_rr (d, s)
        | o when o = Encode.op_mov_ri32 ->
          let d = reg_checked addr (u8 c) in
          Mov_ri (d, i32 c)
        | o when o = Encode.op_mov_ri64 ->
          let d = reg_checked addr (u8 c) in
          Mov_ri (d, i64 c)
        | o when o = Encode.op_load ->
          let w, r = regpair () in
          Load (width_of w, r, get_mem c)
        | o when o = Encode.op_store ->
          let w, r = regpair () in
          let m = get_mem c in
          Store (width_of w, m, r)
        | o when o = Encode.op_store_i ->
          let w, _ = regpair () in
          let m = get_mem c in
          Store_i (width_of w, m, i32 c)
        | o when o = Encode.op_lea ->
          let d = reg_checked addr (u8 c) in
          Lea (d, get_mem c)
        | o when o = Encode.op_mul_rr ->
          let d, s = regpair () in
          Mul_rr (d, s)
        | o when o = Encode.op_div_rr ->
          let d, s = regpair () in
          Div_rr (d, s)
        | o when o = Encode.op_rem_rr ->
          let d, s = regpair () in
          Rem_rr (d, s)
        | o when o = Encode.op_neg -> Neg (reg_checked addr (u8 c))
        | o when o = Encode.op_not -> Not (reg_checked addr (u8 c))
        | o when o = Encode.op_cmp_rr ->
          let a, b = regpair () in
          Cmp_rr (a, b)
        | o when o = Encode.op_cmp_ri ->
          let a = reg_checked addr (u8 c) in
          Cmp_ri (a, i32 c)
        | o when o = Encode.op_test_rr ->
          let a, b = regpair () in
          Test_rr (a, b)
        | o when o = Encode.op_setcc ->
          let cc, r = regpair () in
          Setcc (cc_of cc, r)
        | o when o = Encode.op_jmp -> Jmp (rel32 ())
        | o when o = Encode.op_jcc ->
          let cc = cc_of (u8 c) in
          Jcc (cc, rel32 ())
        | o when o = Encode.op_call -> Call (rel32 ())
        | o when o = Encode.op_call_ind -> Call_ind (reg_checked addr (u8 c))
        | o when o = Encode.op_jmp_ind -> Jmp_ind (reg_checked addr (u8 c))
        | o when o = Encode.op_ret -> Ret
        | o when o = Encode.op_callrt -> Callrt (rtfn_of addr (u8 c))
        | o when o = Encode.op_nop -> Nop 1
        | o when o = Encode.op_hlt -> Hlt
        | o when o = Encode.op_trap -> Trap
        | o when o = Encode.op_probe -> Probe (i32 c)
        | o when o = Encode.op_check ->
          let flags = u8 c in
          let nsaves = u8 c in
          let m = get_mem c in
          let lo = i32 c in
          let hi = i32 c in
          let site = i32 c in
          Check
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
            }
        | b -> raise (Decode.Decode_error { addr; byte = b })
    in
    (i, c.pos - off)

  (* the fix: a field past the buffer's end is reported at the
     instruction's address, with no byte *)
  let decode ~addr buf off =
    try decode_exn ~addr buf off
    with Truncated -> raise (Decode.Decode_error { addr; byte = -1 })

  let sweep ~addr code =
    let rec go off acc =
      if off >= String.length code then List.rev acc
      else
        let a = addr + off in
        let i, len = decode ~addr:a code off in
        go (off + len) ((a, i, len) :: acc)
    in
    go 0 []
end

(* an outcome both decoders must agree on, payload included *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Decode.Decode_error { addr; byte } -> Error (Printf.sprintf "decode %#x %d" addr byte)
  | exception e -> Error (Printexc.to_string e)

(* random bytes, biased to start with a real opcode, placed at a
   random offset of a larger buffer and cut at a random point, so
   every field of every opcode is seen whole, truncated and garbled *)
let gen_placed =
  let open QCheck.Gen in
  let opcodes =
    [ 0x01; 0x02; 0x03; 0x04; 0x05; 0x06; 0x07; 0x10; 0x14; 0x18; 0x1c;
      0x20; 0x21; 0x22; 0x23; 0x24; 0x28; 0x2a; 0x30; 0x31; 0x32; 0x38;
      0x40; 0x41; 0x42; 0x43; 0x45; 0x46; 0x47; 0x50; 0x5f; 0x60; 0x6f;
      0x90; 0xcc; 0xe0; 0xe2; 0xf4 ]
  in
  let* first = frequency [ (4, oneofl opcodes); (1, int_range 0 255) ] in
  let* rest = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 23) in
  let* prefix = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 8) in
  let* addr = int_range 0x400000 0x500000 in
  return (prefix ^ String.make 1 (Char.chr first) ^ rest, String.length prefix, addr)

let prop_decoder_matches_reference =
  QCheck.Test.make ~count:20000 ~name:"decoder = reference decoder on random bytes"
    (QCheck.make gen_placed
       ~print:(fun (s, off, addr) ->
         Printf.sprintf "off %d addr %#x bytes %S" off addr s))
    (fun (buf, off, addr) ->
      outcome (fun () -> Decode.decode ~addr buf off)
      = outcome (fun () -> Ref_decode.decode ~addr buf off))

(* a truncated instruction is reported at its own address, not at its
   offset into the buffer *)
let test_truncation_address () =
  let b = Buffer.create 16 in
  Encode.encode_at b 0x400100 (Isa.Mov_ri (Isa.rax, 0x12345));
  let whole = "\x90\x90" ^ Buffer.contents b in
  for cut = 3 to String.length whole - 1 do
    let buf = String.sub whole 0 cut in
    match Decode.decode ~addr:0x400100 buf 2 with
    | _ -> Alcotest.failf "cut at %d decoded" cut
    | exception Decode.Decode_error { addr; byte } ->
      Alcotest.(check int) "at the instruction" 0x400100 addr;
      Alcotest.(check int) "no byte" (-1) byte
  done;
  (match Decode.decode ~addr:0x400200 "\x90" 1 with
  | _ -> Alcotest.fail "decoded past the end"
  | exception Decode.Decode_error { addr; byte } ->
    Alcotest.(check (pair int int)) "at the end" (0x400200, -1) (addr, byte));
  Alcotest.check_raises "negative offset"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Decode.decode ~addr:0 "\x90" (-1)))

let tests =
  [
    Alcotest.test_case "round-trip samples" `Quick test_roundtrip_samples;
    Alcotest.test_case "check payload round-trip" `Quick test_check_roundtrip;
    Alcotest.test_case "control-transfer lengths" `Quick test_jmp_is_5_bytes;
    Alcotest.test_case "memory instruction lengths" `Quick test_mem_instr_lengths;
    Alcotest.test_case "assembler labels" `Quick test_assembler_labels;
    Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
    Alcotest.test_case "undefined label" `Quick test_undefined_label;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_seq_roundtrip;
    QCheck_alcotest.to_alcotest prop_decoder_matches_reference;
    Alcotest.test_case "truncation reported at the instruction" `Quick
      test_truncation_address;
  ]
