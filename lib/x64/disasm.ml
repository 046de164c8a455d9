(** Pretty-printing (AT&T-flavoured) and linear-sweep disassembly. *)

let mem_to_string (m : Isa.mem) =
  let b = Buffer.create 16 in
  if m.seg <> 0 then Buffer.add_string b (Printf.sprintf "seg%d:" m.seg);
  if m.disp <> 0 then Buffer.add_string b (Printf.sprintf "%#x" m.disp);
  (match (m.base, m.idx) with
   | None, None -> if m.disp = 0 then Buffer.add_string b "0"
   | base, idx ->
     Buffer.add_char b '(';
     (match base with
      | Some r -> Buffer.add_string b ("%" ^ Isa.reg_name r)
      | None -> ());
     (match idx with
      | Some r ->
        Buffer.add_string b (",%" ^ Isa.reg_name r);
        Buffer.add_string b (Printf.sprintf ",%d" m.scale)
      | None -> ());
     Buffer.add_char b ')');
  Buffer.contents b

let alu_name = function
  | Isa.Add -> "add" | Isa.Sub -> "sub" | Isa.And -> "and"
  | Isa.Or -> "or" | Isa.Xor -> "xor"

let shift_name = function Isa.Shl -> "shl" | Isa.Shr -> "shr" | Isa.Sar -> "sar"

let cc_name = function
  | Isa.Eq -> "e" | Isa.Ne -> "ne" | Isa.Lt -> "l" | Isa.Le -> "le"
  | Isa.Gt -> "g" | Isa.Ge -> "ge" | Isa.Ult -> "b" | Isa.Ule -> "be"
  | Isa.Ugt -> "a" | Isa.Uge -> "ae"

let rtfn_name = function
  | Isa.Malloc -> "malloc" | Isa.Free -> "free" | Isa.Input -> "input"
  | Isa.Print -> "print" | Isa.Exit -> "exit"

let width_suffix = function
  | Isa.W1 -> "b" | Isa.W2 -> "w" | Isa.W4 -> "l" | Isa.W8 -> "q"

let r = Isa.reg_name

let to_string (i : Isa.instr) : string =
  match i with
  | Mov_rr (d, s) -> Printf.sprintf "mov %%%s, %%%s" (r s) (r d)
  | Mov_ri (d, v) -> Printf.sprintf "mov $%#x, %%%s" v (r d)
  | Load (w, d, m) ->
    Printf.sprintf "mov%s %s, %%%s" (width_suffix w) (mem_to_string m) (r d)
  | Store (w, m, s) ->
    Printf.sprintf "mov%s %%%s, %s" (width_suffix w) (r s) (mem_to_string m)
  | Store_i (w, m, v) ->
    Printf.sprintf "mov%s $%#x, %s" (width_suffix w) v (mem_to_string m)
  | Lea (d, m) -> Printf.sprintf "lea %s, %%%s" (mem_to_string m) (r d)
  | Alu_rr (op, d, s) ->
    Printf.sprintf "%s %%%s, %%%s" (alu_name op) (r s) (r d)
  | Alu_ri (op, d, v) -> Printf.sprintf "%s $%#x, %%%s" (alu_name op) v (r d)
  | Mul_rr (d, s) -> Printf.sprintf "imul %%%s, %%%s" (r s) (r d)
  | Div_rr (d, s) -> Printf.sprintf "div %%%s, %%%s" (r s) (r d)
  | Rem_rr (d, s) -> Printf.sprintf "rem %%%s, %%%s" (r s) (r d)
  | Neg x -> Printf.sprintf "neg %%%s" (r x)
  | Not x -> Printf.sprintf "not %%%s" (r x)
  | Shift_ri (s, x, n) -> Printf.sprintf "%s $%d, %%%s" (shift_name s) n (r x)
  | Cmp_rr (a, b) -> Printf.sprintf "cmp %%%s, %%%s" (r b) (r a)
  | Cmp_ri (a, v) -> Printf.sprintf "cmp $%#x, %%%s" v (r a)
  | Test_rr (a, b) -> Printf.sprintf "test %%%s, %%%s" (r b) (r a)
  | Setcc (cc, x) -> Printf.sprintf "set%s %%%s" (cc_name cc) (r x)
  | Jmp t -> Printf.sprintf "jmpq %#x" t
  | Jcc (cc, t) -> Printf.sprintf "j%s %#x" (cc_name cc) t
  | Call t -> Printf.sprintf "callq %#x" t
  | Call_ind x -> Printf.sprintf "callq *%%%s" (r x)
  | Jmp_ind x -> Printf.sprintf "jmpq *%%%s" (r x)
  | Ret -> "retq"
  | Push x -> Printf.sprintf "push %%%s" (r x)
  | Pop x -> Printf.sprintf "pop %%%s" (r x)
  | Callrt f -> Printf.sprintf "callrt %s" (rtfn_name f)
  | Nop n -> if n = 1 then "nop" else Printf.sprintf "nop%d" n
  | Hlt -> "hlt"
  | Trap -> "trap"
  | Probe id -> Printf.sprintf "probe %d" id
  | Check c ->
    Printf.sprintf "check.%s%s %s lo=%d hi=%d site=%#x"
      (match c.ck_variant with
       | Isa.Full -> "full" | Isa.Redzone -> "rz" | Isa.Temporal -> "tmp")
      (if c.ck_write then ".w" else ".r")
      (mem_to_string c.ck_mem) c.ck_lo c.ck_hi c.ck_site

type stream = {
  addrs : int array;
  instrs : Isa.instr array;
  lens : int array;
}

(** Linear sweep over a code blob starting at virtual address [addr],
    into three parallel arrays grown in place (about one instruction
    per 3 bytes of x64l code).  Only the decoded instructions are
    allocated: no per-instruction tuple survives the sweep. *)
let sweep_stream ~(addr : int) (code : string) : stream =
  let n = String.length code in
  let cap = (n / 3) + 16 in
  let addrs = ref (Array.make cap 0) in
  let instrs = ref (Array.make cap Isa.Hlt) in
  let lens = ref (Array.make cap 0) in
  let k = ref 0 and off = ref 0 in
  while !off < n do
    let a = addr + !off in
    let i, len = Decode.decode ~addr:a code !off in
    if !k = Array.length !addrs then begin
      let grow arr fill =
        let bigger = Array.make (2 * !k) fill in
        Array.blit arr 0 bigger 0 !k;
        bigger
      in
      addrs := grow !addrs 0;
      instrs := grow !instrs Isa.Hlt;
      lens := grow !lens 0
    end;
    Array.unsafe_set !addrs !k a;
    Array.unsafe_set !instrs !k i;
    Array.unsafe_set !lens !k len;
    incr k;
    off := !off + len
  done;
  let trim arr = if Array.length arr = !k then arr else Array.sub arr 0 !k in
  { addrs = trim !addrs; instrs = trim !instrs; lens = trim !lens }

let length (s : stream) = Array.length s.addrs

let sweep ~addr code =
  let s = sweep_stream ~addr code in
  let l = ref [] in
  for k = length s - 1 downto 0 do
    l := (s.addrs.(k), s.instrs.(k), s.lens.(k)) :: !l
  done;
  !l

(** Tolerant dump for human consumption: undecodable bytes (stale
    bytes left behind by patch tactics, data in text, ...) print as
    [.byte] lines and the sweep resynchronizes one byte later, like any
    production disassembler. *)
let dump ~addr code =
  let b = Buffer.create 1024 in
  let n = String.length code in
  let rec go off =
    if off < n then begin
      match Decode.decode ~addr:(addr + off) code off with
      | i, len ->
        Buffer.add_string b
          (Printf.sprintf "%8x: %s\n" (addr + off) (to_string i));
        go (off + len)
      | exception Decode.Decode_error _ ->
        Buffer.add_string b
          (Printf.sprintf "%8x: .byte %#04x\n" (addr + off)
             (Char.code code.[off]));
        go (off + 1)
    end
  in
  go 0;
  Buffer.contents b
