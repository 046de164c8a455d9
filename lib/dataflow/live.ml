(** Interblock backward liveness of registers and %eflags.

    Replaces the rewriter's conservative "everything live past the
    block edge" cutoff: a register is dead at an instrumentation point
    iff it is written before read on {e every} path from the point, so
    trampolines can use it as scratch without a save.

    Facts are bitmasks: bits 0..15 the registers, bit 16 the flags.
    Each instruction's transfer is a [(kill, gen)] pair of masks, so a
    block's transfer composes into one pair and the fixpoint runs on
    [int] arrays.
    Calls are summarized by the SysV-style ABI this toolchain's
    codegen follows (arguments on the stack, results in %rax,
    caller-saved clobbered, flags clobbered) instead of being
    traversed; an indirect jump is fully conservative. *)

let flags_bit = 1 lsl 16
let reg_bit (r : X64.Isa.reg) = 1 lsl r
let all_live = (1 lsl 17) - 1

let mask_of_regs = List.fold_left (fun m r -> m lor reg_bit r) 0

let caller_saved_mask =
  mask_of_regs X64.Isa.[ rax; rcx; rdx; rsi; rdi; r8; r9; r10; r11 ]
let callee_saved_mask =
  mask_of_regs X64.Isa.[ rbx; rbp; r12; r13; r14; r15 ] lor reg_bit X64.Isa.rsp

(* An instruction's transfer is [before = (after land lnot kill) lor
   gen].  A call first applies the ABI summary — the callee clobbers
   caller-saved registers and the flags, receives arguments on the
   stack, and preserves the rest — and then its own defs and uses;
   the two steps compose into one pair. *)
let call_kill = caller_saved_mask lor flags_bit
let rsp_bit = reg_bit X64.Isa.rsp

let defs_of (i : X64.Isa.instr) =
  X64.Isa.def_mask i lor if X64.Isa.writes_flags i then flags_bit else 0

let uses_of (i : X64.Isa.instr) =
  X64.Isa.use_mask i lor if X64.Isa.reads_flags i then flags_bit else 0

let kill_of (i : X64.Isa.instr) =
  if X64.Isa.is_call i then defs_of i lor call_kill else defs_of i

let gen_of (i : X64.Isa.instr) =
  if X64.Isa.is_call i then (rsp_bit land lnot (defs_of i)) lor uses_of i
  else uses_of i

(* live-before from live-after for one instruction *)
let transfer_instr (i : X64.Isa.instr) (live : int) : int =
  (live land lnot (kill_of i)) lor gen_of i

let exit_live (b : Graph.block) : int =
  match b.Graph.term with
  | Stop ->
    (* ret/hlt: the result register, the stack pointer, and the
       callee-saved registers (whose values flow back to the caller
       per the ABI) survive; caller-saved values and flags do not *)
    reg_bit X64.Isa.rax lor callee_saved_mask
  | _ ->
    (* indirect jump, or a block falling off the end of the text:
       assume everything live *)
    all_live

type t = { graph : Graph.t; live_in : int array; live_out : int array }

(* Each block's instructions compose, in one backward pass, into one
   [(kill, gen)] pair, so the fixpoint below touches one pair per
   block visit instead of replaying the block.  Transfers are
   monotone and the lattice finite, so the worklist order does not
   change the least fixpoint it reaches. *)
let solve (g : Graph.t) : t =
  let nb = Graph.num_blocks g in
  let instrs = (Graph.stream g).instrs in
  let kill = Array.make nb 0 and gen = Array.make nb 0 in
  let live_in = Array.make nb 0 and live_out = Array.make nb 0 in
  let exit = Array.make nb false in
  (* flow predecessors under [fall_succs], as one array sliced by
     [pstart] *)
  let pstart = Array.make (nb + 1) 0 in
  Array.iter
    (fun (b : Graph.block) ->
      (* the pair of instructions [i..last]: [i]'s transfer after
         the rest's *)
      let k = ref 0 and gn = ref 0 in
      for i = b.Graph.last downto b.Graph.first do
        let ki = kill_of instrs.(i) in
        gn := (!gn land lnot ki) lor gen_of instrs.(i);
        k := !k lor ki
      done;
      kill.(b.Graph.id) <- !k;
      gen.(b.Graph.id) <- !gn;
      match b.Graph.fall_succs with
      | [] ->
        exit.(b.Graph.id) <- true;
        live_out.(b.Graph.id) <- exit_live b
      | ss -> List.iter (fun s -> pstart.(s + 1) <- pstart.(s + 1) + 1) ss)
    g.Graph.blocks;
  for b = 1 to nb do
    pstart.(b) <- pstart.(b) + pstart.(b - 1)
  done;
  let preds = Array.make pstart.(nb) 0 in
  let fill = Array.sub pstart 0 (max nb 1) in
  Array.iter
    (fun (b : Graph.block) ->
      List.iter
        (fun s ->
          preds.(fill.(s)) <- b.Graph.id;
          fill.(s) <- fill.(s) + 1)
        b.Graph.fall_succs)
    g.Graph.blocks;
  (* the worklist: a ring of block ids, each queued at most once;
     seeded with every block, unreachable ones first and the
     reachable ones in postorder, so most facts settle in one sweep *)
  let ring = Array.make (max nb 1) 0 and queued = Array.make nb true in
  let head = ref 0 and size = ref 0 in
  let push b =
    ring.((!head + !size) mod nb) <- b;
    incr size
  in
  let seen = Array.make nb false in
  Array.iter (fun b -> seen.(b) <- true) g.Graph.rpo;
  for b = nb - 1 downto 0 do
    if not seen.(b) then push b
  done;
  for k = Array.length g.Graph.rpo - 1 downto 0 do
    push g.Graph.rpo.(k)
  done;
  let rec join_in acc = function
    | [] -> acc
    | s :: rest -> join_in (acc lor live_in.(s)) rest
  in
  while !size > 0 do
    let b = ring.(!head) in
    head := (!head + 1) mod nb;
    decr size;
    queued.(b) <- false;
    if not exit.(b) then
      live_out.(b) <- join_in 0 (Graph.block g b).Graph.fall_succs;
    let inp = (live_out.(b) land lnot kill.(b)) lor gen.(b) in
    if inp <> live_in.(b) then begin
      live_in.(b) <- inp;
      for k = pstart.(b) to pstart.(b + 1) - 1 do
        let p = preds.(k) in
        if not queued.(p) then begin
          queued.(p) <- true;
          push p
        end
      done
    end
  done;
  { graph = g; live_in; live_out }

let live_in t b = t.live_in.(b)
let live_out t b = t.live_out.(b)

(** Liveness fact immediately before instruction [index]. *)
let live_before t (index : int) : int =
  let g = t.graph in
  let bid = Graph.block_of_instr g index in
  let b = Graph.block g bid in
  let live = ref t.live_out.(bid) in
  for i = b.Graph.last downto index do
    live := transfer_instr (Graph.instr g i) !live
  done;
  !live

let is_live mask (r : X64.Isa.reg) = mask land reg_bit r <> 0
let flags_live mask = mask land flags_bit <> 0
