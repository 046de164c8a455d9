(** Local static analyses feeding the rewriter's optimizations.

    - {!eliminable}: the check-elimination rule (paper §6) — memory
      operands that provably cannot reach the low-fat heap.
    - {!clobbers}: the trampoline-specialization analysis ("additional
      low-level optimizations", §6) — how many scratch registers and
      whether %eflags must be preserved around the instrumentation.
      The forward clobber scan no longer bails conservatively at the
      first control transfer: a block-terminating call or indirect
      jump clobbers the caller-saved registers and flags per the ABI,
      and registers the scan could not classify are resolved by the
      interblock liveness solution when one is supplied. *)

(** The trampoline code needs this many scratch registers when none are
    statically known to be dead at the instrumentation point. *)
let scratch_needed = 3

(** A memory operand that can never point into the low-fat heap does
    not need a check: no index register, and either no base register
    (the displacement is a ±2 GiB absolute, always ≥ 2 GiB away from
    the heap in the standard layout) or the base is the stack pointer
    (the stack lives ≥ 2 GiB from the heap). *)
let eliminable (m : X64.Isa.mem) ~(len : int) : bool =
  match m.idx with
  | Some _ -> false
  | None ->
    (match m.base with
     | None ->
       Lowfat.Layout.addr_range_clear_of_heap ~lo:m.disp ~hi:(m.disp + len)
     | Some r -> r = X64.Isa.rsp)

(** Result of the clobber scan at an instrumentation point. *)
type spec = { nsaves : int; save_flags : bool }

let conservative = { nsaves = scratch_needed; save_flags = true }

(* Scan forward from instruction [start] (inclusive: the displaced
   instruction itself still runs after the check) computing which
   registers are written before being read — dead at the point — and
   whether the flags are written before being read.

   The scan stops {e before} the first block boundary, direct
   control transfer, call, or at [limit] instructions.  Registers and
   flags the scan could not classify are then resolved at the stop
   point: a call or indirect jump makes the caller-saved registers and
   flags dead per the ABI (arguments travel on the stack, the callee
   clobbers freely); anything still unknown falls back to the
   interblock liveness fact at the stop point when [live] is supplied,
   or stays conservatively live. *)
let clobbers ?(live : Dataflow.Live.t option) (g : Dataflow.Graph.t)
    ~(start : int) ~(limit : int) : spec =
  (* register masks: bit [r] for register [r] *)
  let read = ref 0 and dead = ref 0 in
  let flags = ref `Unknown in
  let n = Dataflow.Graph.num_instrs g in
  let stop = ref `Scanning in
  let i = ref start and steps = ref 0 in
  while !stop = `Scanning do
    if !i >= n then stop := `End
    else begin
      let instr = Dataflow.Graph.instr g !i in
      if !i > start && Dataflow.Graph.is_leader g (Dataflow.Graph.addr g !i)
      then stop := `Edge
      else if !steps >= limit then stop := `Edge
      else
        match instr with
        | X64.Isa.Call _ | Call_ind _ | Jmp_ind _ ->
          (* ABI boundary: the transfer's own operands are read first
             (e.g. [call *%rax]), then the callee clobbers *)
          read := !read lor (X64.Isa.use_mask instr land lnot !dead);
          stop := `Call
        | Jmp _ | Jcc _ | Ret | Hlt -> stop := `Edge
        | _ ->
          read := !read lor (X64.Isa.use_mask instr land lnot !dead);
          dead := !dead lor (X64.Isa.def_mask instr land lnot !read);
          if !flags = `Unknown then begin
            if X64.Isa.reads_flags instr then flags := `Read
            else if X64.Isa.writes_flags instr then flags := `Written
          end;
          incr i;
          incr steps
    end
  done;
  (* resolve what the scan left unclassified *)
  if !stop = `Call then begin
    (* the call (or tail transfer) writes every caller-saved register
       and the flags before anything can read them *)
    dead := !dead lor (Dataflow.Live.caller_saved_mask land lnot !read);
    if !flags = `Unknown then flags := `Written
  end;
  (match live with
   | Some lv when !i < n ->
     (* the stop-point instruction was not consumed by the scan, so the
        liveness fact immediately before it is exactly the fact at the
        scan's frontier; a register untouched between [start] and the
        frontier has the same liveness at both points *)
     let mask = Dataflow.Live.live_before lv !i in
     let regs = (1 lsl X64.Isa.num_regs) - 1 in
     dead := !dead lor (regs land lnot (!read lor mask));
     if !flags = `Unknown && not (Dataflow.Live.flags_live mask) then
       flags := `Written
   | _ -> ());
  let ndead = ref 0 in
  for r = 0 to X64.Isa.num_regs - 1 do
    if !dead land (1 lsl r) <> 0 then incr ndead
  done;
  {
    nsaves = max 0 (scratch_needed - !ndead);
    save_flags = (match !flags with `Written -> false | _ -> true);
  }
