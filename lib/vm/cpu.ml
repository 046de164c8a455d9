(** The x64l interpreter with a deterministic cycle cost model.

    The cost model is the measurement substrate for every experiment
    (see DESIGN.md): performance results are reported as cycle ratios
    instrumented/baseline, so what matters is that every piece of extra
    work the instrumentation introduces — trampoline jumps, check
    micro-ops, DBI dispatch, shadow lookups — is charged a defensible
    relative cost, not that absolute numbers match any real machine.

    Costs: 1 cycle per instruction, +1 per explicit memory access,
    multiplies 3, divides 8, +1 per taken control transfer and +2 more
    when the transfer is "far" (> 64 KiB away, modelling the icache
    locality loss that motivates the paper's batching optimization),
    +10 for a trap-table fallback patch.  Checks are charged by the
    [on_check] hook (the redfat runtime returns the micro-op count of
    the corresponding assembly sequence). *)

exception Halt
exception Div_by_zero of int
exception Invalid_opcode of int
exception Timeout of int
exception Exited of int

(* Lazy flags: [Cmp a b] records the operand pair; condition codes are
   evaluated from it on demand.  ALU results record (result, 0). *)
type flags = { mutable fa : int; mutable fb : int }

(* Optional per-hardened-site check accounting: which guarded sites
   execute, how often, and how many cycles their checks cost.  Off by
   default (a [None] test per executed check); a trace run attaches an
   [acct] and exports it through the obs layer. *)
type site_acct = { mutable sa_checks : int; mutable sa_cycles : int }

type acct = {
  acct_sites : (int, site_acct) Hashtbl.t; (* ck_site -> totals *)
  mutable acct_full : int;     (* Full-variant checks executed *)
  mutable acct_redzone : int;  (* Redzone-variant checks executed *)
  mutable acct_temporal : int; (* Temporal-variant checks executed *)
  mutable acct_cycles : int;   (* total cycles spent in checks *)
}

let new_acct () =
  { acct_sites = Hashtbl.create 64; acct_full = 0; acct_redzone = 0;
    acct_temporal = 0; acct_cycles = 0 }

let acct_record (a : acct) (ck : X64.Isa.check) cost =
  (match ck.X64.Isa.ck_variant with
   | X64.Isa.Full -> a.acct_full <- a.acct_full + 1
   | X64.Isa.Redzone -> a.acct_redzone <- a.acct_redzone + 1
   | X64.Isa.Temporal -> a.acct_temporal <- a.acct_temporal + 1);
  a.acct_cycles <- a.acct_cycles + cost;
  let sa =
    match Hashtbl.find_opt a.acct_sites ck.X64.Isa.ck_site with
    | Some sa -> sa
    | None ->
      let sa = { sa_checks = 0; sa_cycles = 0 } in
      Hashtbl.add a.acct_sites ck.X64.Isa.ck_site sa;
      sa
  in
  sa.sa_checks <- sa.sa_checks + 1;
  sa.sa_cycles <- sa.sa_cycles + cost

let acct_sites (a : acct) : (int * int * int) list =
  Hashtbl.fold
    (fun site sa acc -> (site, sa.sa_checks, sa.sa_cycles) :: acc)
    a.acct_sites []
  |> List.sort compare

(* A predecoded executable section: [r_instrs.(a - r_base)] is the
   instruction at address [a] with its length, or [no_instr] (length 0)
   where the sweep that built it did not start an instruction. *)
type region = { r_base : int; r_instrs : (X64.Isa.instr * int) array }

let no_instr = (X64.Isa.Hlt, 0)

type t = {
  mem : Mem.t;
  regs : int array;
  mutable rip : int;
  flags : flags;
  mutable cycles : int;
  mutable steps : int;
  mutable max_steps : int;
  (* instrumentation hooks *)
  mutable on_check : (t -> X64.Isa.check -> int) option;
  mutable on_probe : (t -> int -> int) option;
  mutable on_mem : (t -> addr:int -> len:int -> write:bool -> unit) option;
  mutable dispatch_cost : int;  (** extra cycles per instruction (DBI) *)
  mutable acct : acct option;   (** per-site check accounting *)
  mutable addr_mask : int;
  (** Mask applied to data effective addresses before memory access;
      [-1] (identity) by default.  The temporal backend sets it to
      strip lock-and-key tags from pointers' high bits, so tagged
      pointers dereference transparently.  [Lea] stays unmasked: it
      computes pointer values, and masking there would strip tags. *)
  trap_table : (int, int) Hashtbl.t;  (** patch address -> trampoline *)
  code : region array;  (** predecoded sections, consulted before [icache] *)
  icache : (int, X64.Isa.instr * int) Hashtbl.t;
  dcache_tag : int array;
  dcache : (X64.Isa.instr * int) array;
  (* direct-mapped decoded-instruction cache in front of [icache]: slot
     [addr land (dcache_size - 1)] holds the instruction at [addr] when
     its tag is [addr] *)
  (* scripted I/O *)
  mutable inputs : int list;
  mutable outputs : int list;  (** reverse order *)
  mutable mem_reads : int;
  mutable mem_writes : int;
}

let halt_sentinel = 0x0dead_f00d

(* a power of two of at most 256 entries, so a fresh CPU allocates the
   cache on the minor heap *)
let dcache_size = 256

let create ?(max_steps = 200_000_000) ?mem ?(code = [||]) ?trap_table () =
  {
    mem = (match mem with Some m -> m | None -> Mem.create ());
    regs = Array.make X64.Isa.num_regs 0;
    rip = 0;
    flags = { fa = 0; fb = 0 };
    cycles = 0;
    steps = 0;
    max_steps;
    on_check = None;
    on_probe = None;
    on_mem = None;
    dispatch_cost = 0;
    acct = None;
    addr_mask = -1;
    trap_table =
      (match trap_table with Some tt -> tt | None -> Hashtbl.create 64);
    code;
    (* small: see Mem.create *)
    icache = Hashtbl.create 16;
    (* slot [s] starts with tag [lnot s], which no address mapping to
       slot [s] can equal, so an empty slot never hits *)
    dcache_tag = Array.init dcache_size lnot;
    dcache = Array.make dcache_size (X64.Isa.Hlt, 0);
    inputs = [];
    outputs = [];
    mem_reads = 0;
    mem_writes = 0;
  }

let outputs t = List.rev t.outputs

(** Effective address of a memory operand.  Segments resolve to 0 (the
    simulated machine has a flat address space, like user-mode x86-64
    with %ds; the field exists because the operand 5-tuple carries it). *)
let ea t (m : X64.Isa.mem) =
  let b = match m.base with Some r -> t.regs.(r) | None -> 0 in
  let i = match m.idx with Some r -> t.regs.(r) | None -> 0 in
  m.disp + b + (i * m.scale)

(* data accesses strip pointer tags (identity unless a tagging backend
   installed an addr_mask) *)
let ea_data t m = ea t m land t.addr_mask

(* The instruction at [addr] as the fetcher reads it from [mem]. *)
let decode_at mem addr =
  let raw = Mem.read_string mem ~addr ~len:40 in
  if raw = "" then raise (Mem.Segfault addr);
  X64.Decode.decode ~addr raw 0

(* A linear sweep over [addr, addr+len): decode, step over the
   instruction, repeat; a byte that does not decode is skipped.  Each
   entry is [decode_at mem] of its address, so a hit equals what the
   fetcher would decode there while the code bytes stay unwritten. *)
let predecode mem ~addr ~len =
  let instrs = Array.make (max len 0) no_instr in
  let rec sweep off =
    if off < len then
      match decode_at mem (addr + off) with
      | (_, n) as v ->
        instrs.(off) <- v;
        sweep (off + n)
      | exception X64.Decode.Decode_error _ -> sweep (off + 1)
  in
  sweep 0;
  { r_base = addr; r_instrs = instrs }

let rec predecoded code k addr =
  if k = Array.length code then no_instr
  else
    let r = Array.unsafe_get code k in
    let off = addr - r.r_base in
    if off >= 0 && off < Array.length r.r_instrs then
      Array.unsafe_get r.r_instrs off
    else predecoded code (k + 1) addr

(* Decoded instructions are never invalidated: code is never written
   (a store into a predecoded section lands in memory, but the fetcher
   keeps the instruction decoded when the image was built). *)
let fetch_slow t addr slot =
  let v =
    match predecoded t.code 0 addr with
    | (_, n) as v when n > 0 -> v
    | _ -> (
      match Hashtbl.find_opt t.icache addr with
      | Some v -> v
      | None ->
        let v = decode_at t.mem addr in
        Hashtbl.add t.icache addr v;
        v)
  in
  Array.unsafe_set t.dcache_tag slot addr;
  Array.unsafe_set t.dcache slot v;
  v

let fetch t addr =
  let slot = addr land (dcache_size - 1) in
  if Array.unsafe_get t.dcache_tag slot = addr then
    Array.unsafe_get t.dcache slot
  else fetch_slow t addr slot

let far_jump_penalty t target = if abs (target - t.rip) > 0x1_0000 then 2 else 0

let jump_to t target =
  t.cycles <- t.cycles + 1 + far_jump_penalty t target;
  t.rip <- target

let mem_access t addr len write =
  (match t.on_mem with
   | Some f -> f t ~addr ~len ~write
   | None -> ());
  if write then t.mem_writes <- t.mem_writes + 1
  else t.mem_reads <- t.mem_reads + 1

let set_flags_result t r =
  t.flags.fa <- r;
  t.flags.fb <- 0

let eval_cc t (cc : X64.Isa.cc) =
  let a = t.flags.fa and b = t.flags.fb in
  match cc with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | Ult -> Int.compare (a + min_int) (b + min_int) < 0
  | Ule -> Int.compare (a + min_int) (b + min_int) <= 0
  | Ugt -> Int.compare (a + min_int) (b + min_int) > 0
  | Uge -> Int.compare (a + min_int) (b + min_int) >= 0

type runtime = {
  rt_malloc : t -> int -> int;
  rt_free : t -> int -> unit;
  rt_name : string;
}

(** Execute one instruction; raises {!Halt} on hlt or final ret. *)
let step t (rt : runtime) =
  if t.steps >= t.max_steps then raise (Timeout t.steps);
  let i, len = fetch t t.rip in
  t.steps <- t.steps + 1;
  t.cycles <- t.cycles + 1 + t.dispatch_cost;
  let next = t.rip + len in
  let open X64.Isa in
  match i with
  | Mov_rr (d, s) ->
    t.regs.(d) <- t.regs.(s);
    t.rip <- next
  | Mov_ri (d, v) ->
    t.regs.(d) <- v;
    t.rip <- next
  | Load (w, d, m) ->
    let addr = ea_data t m and lenb = width_bytes w in
    mem_access t addr lenb false;
    t.regs.(d) <- Mem.read t.mem ~addr ~len:lenb;
    t.cycles <- t.cycles + 1;
    t.rip <- next
  | Store (w, m, s) ->
    let addr = ea_data t m and lenb = width_bytes w in
    mem_access t addr lenb true;
    Mem.write t.mem ~addr ~len:lenb t.regs.(s);
    t.cycles <- t.cycles + 1;
    t.rip <- next
  | Store_i (w, m, v) ->
    let addr = ea_data t m and lenb = width_bytes w in
    mem_access t addr lenb true;
    Mem.write t.mem ~addr ~len:lenb v;
    t.cycles <- t.cycles + 1;
    t.rip <- next
  | Lea (d, m) ->
    t.regs.(d) <- ea t m;
    t.rip <- next
  | Alu_rr (op, d, s) ->
    let a = t.regs.(d) and b = t.regs.(s) in
    let r =
      match op with
      | Add -> a + b
      | Sub -> a - b
      | And -> a land b
      | Or -> a lor b
      | Xor -> a lxor b
    in
    t.regs.(d) <- r;
    set_flags_result t r;
    t.rip <- next
  | Alu_ri (op, d, v) ->
    let a = t.regs.(d) in
    let r =
      match op with
      | Add -> a + v
      | Sub -> a - v
      | And -> a land v
      | Or -> a lor v
      | Xor -> a lxor v
    in
    t.regs.(d) <- r;
    set_flags_result t r;
    t.rip <- next
  | Mul_rr (d, s) ->
    t.regs.(d) <- t.regs.(d) * t.regs.(s);
    set_flags_result t t.regs.(d);
    t.cycles <- t.cycles + 2;
    t.rip <- next
  | Div_rr (d, s) ->
    if t.regs.(s) = 0 then raise (Div_by_zero t.rip);
    t.regs.(d) <- t.regs.(d) / t.regs.(s);
    set_flags_result t t.regs.(d);
    t.cycles <- t.cycles + 7;
    t.rip <- next
  | Rem_rr (d, s) ->
    if t.regs.(s) = 0 then raise (Div_by_zero t.rip);
    t.regs.(d) <- t.regs.(d) mod t.regs.(s);
    set_flags_result t t.regs.(d);
    t.cycles <- t.cycles + 7;
    t.rip <- next
  | Neg r ->
    t.regs.(r) <- -t.regs.(r);
    set_flags_result t t.regs.(r);
    t.rip <- next
  | Not r ->
    t.regs.(r) <- lnot t.regs.(r);
    t.rip <- next
  | Shift_ri (s, r, n) ->
    let v = t.regs.(r) in
    t.regs.(r) <-
      (match s with Shl -> v lsl n | Shr -> v lsr n | Sar -> v asr n);
    set_flags_result t t.regs.(r);
    t.rip <- next
  | Cmp_rr (a, b) ->
    t.flags.fa <- t.regs.(a);
    t.flags.fb <- t.regs.(b);
    t.rip <- next
  | Cmp_ri (a, v) ->
    t.flags.fa <- t.regs.(a);
    t.flags.fb <- v;
    t.rip <- next
  | Test_rr (a, b) ->
    t.flags.fa <- t.regs.(a) land t.regs.(b);
    t.flags.fb <- 0;
    t.rip <- next
  | Setcc (cc, r) ->
    t.regs.(r) <- (if eval_cc t cc then 1 else 0);
    t.rip <- next
  | Jmp target -> jump_to t target
  | Jcc (cc, target) ->
    if eval_cc t cc then jump_to t target else t.rip <- next
  | Call target ->
    t.regs.(rsp) <- t.regs.(rsp) - 8;
    mem_access t t.regs.(rsp) 8 true;
    Mem.write t.mem ~addr:t.regs.(rsp) ~len:8 next;
    jump_to t target
  | Call_ind r ->
    t.regs.(rsp) <- t.regs.(rsp) - 8;
    mem_access t t.regs.(rsp) 8 true;
    Mem.write t.mem ~addr:t.regs.(rsp) ~len:8 next;
    t.cycles <- t.cycles + 1; (* indirect-branch prediction cost *)
    jump_to t t.regs.(r)
  | Jmp_ind r ->
    t.cycles <- t.cycles + 1;
    jump_to t t.regs.(r)
  | Ret ->
    mem_access t t.regs.(rsp) 8 false;
    let target = Mem.read t.mem ~addr:t.regs.(rsp) ~len:8 in
    t.regs.(rsp) <- t.regs.(rsp) + 8;
    if target = halt_sentinel then raise Halt;
    jump_to t target
  | Push r ->
    t.regs.(rsp) <- t.regs.(rsp) - 8;
    mem_access t t.regs.(rsp) 8 true;
    Mem.write t.mem ~addr:t.regs.(rsp) ~len:8 t.regs.(r);
    t.cycles <- t.cycles + 1;
    t.rip <- next
  | Pop r ->
    mem_access t t.regs.(rsp) 8 false;
    t.regs.(r) <- Mem.read t.mem ~addr:t.regs.(rsp) ~len:8;
    t.regs.(rsp) <- t.regs.(rsp) + 8;
    t.cycles <- t.cycles + 1;
    t.rip <- next
  | Callrt f ->
    (* models a PLT call into the preloaded runtime library *)
    t.cycles <- t.cycles + 8;
    (match f with
     | Malloc -> t.regs.(rax) <- rt.rt_malloc t t.regs.(rdi)
     | Free -> rt.rt_free t t.regs.(rdi)
     | Input ->
       (match t.inputs with
        | [] -> t.regs.(rax) <- 0
        | v :: rest ->
          t.regs.(rax) <- v;
          t.inputs <- rest)
     | Print -> t.outputs <- t.regs.(rdi) :: t.outputs
     | Exit -> raise (Exited t.regs.(rdi)));
    t.rip <- next
  | Nop _ -> t.rip <- next
  | Hlt -> raise Halt
  | Trap ->
    (* E9Patch fallback tactic: a 1-byte patch that redirects via a
       table, at a much higher per-execution cost than a jump *)
    (match Hashtbl.find_opt t.trap_table t.rip with
     | Some target ->
       t.cycles <- t.cycles + 10;
       t.rip <- target
     | None -> raise (Invalid_opcode t.rip))
  | Check c ->
    (match t.on_check with
     | Some f ->
       let cost = f t c in
       t.cycles <- t.cycles + cost;
       (match t.acct with
        | Some a -> acct_record a c cost
        | None -> ())
     | None -> ());
    t.rip <- next
  | Probe id ->
    (* a shared-memory counter update in the real tool: ~3 instructions *)
    (match t.on_probe with
     | Some f -> t.cycles <- t.cycles + f t id
     | None -> t.cycles <- t.cycles + 3);
    t.rip <- next

(** Point the machine at [entry] and push the final return address:
    popping it halts the machine. *)
let enter t ~entry =
  t.rip <- entry;
  t.regs.(X64.Isa.rsp) <- t.regs.(X64.Isa.rsp) - 8;
  Mem.write t.mem ~addr:t.regs.(X64.Isa.rsp) ~len:8 halt_sentinel

(** Run from [entry] until the program halts (final ret, hlt, or
    Exit runtime call).  Returns the exit code (0 unless [Exit]). *)
let run t (rt : runtime) ~entry =
  enter t ~entry;
  try
    while true do
      step t rt
    done;
    assert false
  with
  | Halt -> 0
  | Exited code -> code
