(** Block-local copy/constant canonicalization of memory operands.

    The code generator churns through temporaries: the same logical
    access [a\[i\]] appears as [(%r8,%r9,8)] at one site and
    [(%r9,%r10,8)] at the next, both registers freshly copied from the
    stable [%r12]/[%rbx].  Register-named availability facts and merge
    keys cannot see through the copies, so every redundancy analysis
    downstream would come up empty.

    [operand] rewrites an operand's registers to the oldest registers
    provably holding the same values at that instruction — following
    [mov] chains within the basic block — and folds registers holding
    known constants into the displacement.  The canonical operand
    evaluates to the same address at the instruction itself, and (the
    property batching and availability rely on) at any earlier point
    of the block after which the canonical registers are not
    redefined.

    Both the rewriter (member collection, so merge keys, check
    operands and availability facts are canonical) and the soundness
    linter (operand classification) call this same function — the
    agreement of the two is what keeps the linter's proof obligations
    in sync with the optimizer. *)

(* per-register knowledge at a program point *)
type state = {
  copy : int option array;   (* r holds the same value as this register *)
  konst : int option array;  (* r holds this known constant *)
}

let fresh () =
  {
    copy = Array.make X64.Isa.num_regs None;
    konst = Array.make X64.Isa.num_regs None;
  }

let canon_reg (st : state) (r : X64.Isa.reg) : X64.Isa.reg =
  match st.copy.(r) with Some s -> s | None -> r

(* r's value is redefined: it canonicalizes to itself again, and any
   chain naming r as its canonical root dies (the holders keep the old
   value, but the name no longer denotes it) *)
let invalidate (st : state) (r : X64.Isa.reg) =
  st.copy.(r) <- None;
  st.konst.(r) <- None;
  for x = 0 to X64.Isa.num_regs - 1 do
    match st.copy.(x) with
    | Some c when Int.equal c r -> st.copy.(x) <- None
    | _ -> ()
  done

(* every register of a def mask (bit [r] for register [r]) *)
let invalidate_mask st defs =
  if defs <> 0 then
    for r = 0 to X64.Isa.num_regs - 1 do
      if defs land (1 lsl r) <> 0 then invalidate st r
    done

let step (st : state) (instr : X64.Isa.instr) =
  match instr with
  | X64.Isa.Mov_rr (d, s) ->
    let c = canon_reg st s in
    let k = st.konst.(s) in
    invalidate st d;
    if c <> d then st.copy.(d) <- X64.Isa.some_reg c;
    st.konst.(d) <- k
  | X64.Isa.Mov_ri (d, v) ->
    invalidate st d;
    st.konst.(d) <- Some v
  | _ -> invalidate_mask st (X64.Isa.def_mask instr)

(* the canonical form of [m] under [st]: constant-fold first (a
   register holding a known constant becomes displacement), then
   rename what remains to canonical copies *)
let canon_mem (st : state) (m : X64.Isa.mem) : X64.Isa.mem =
  let konst = function Some r -> st.konst.(r) | None -> None in
  let m =
    match konst m.X64.Isa.base with
    | Some k ->
      let d = m.X64.Isa.disp + k in
      if X64.Encode.fits_i32 d then { m with X64.Isa.base = None; disp = d }
      else m
    | None -> m
  in
  let m =
    match konst m.X64.Isa.idx with
    | Some k ->
      let d = m.X64.Isa.disp + (k * m.X64.Isa.scale) in
      if X64.Encode.fits_i32 d then
        { m with X64.Isa.idx = None; disp = d; scale = 1 }
      else m
    | None -> m
  in
  let m =
    match m.X64.Isa.base with
    | Some r ->
      let c = canon_reg st r in
      if c = r then m else { m with X64.Isa.base = X64.Isa.some_reg c }
    | None -> m
  in
  match m.X64.Isa.idx with
  | Some r ->
    let c = canon_reg st r in
    if c = r then m else { m with X64.Isa.idx = X64.Isa.some_reg c }
  | None -> m

(** Canonical form of [m] as seen by instruction [index]. *)
let operand (g : Graph.t) (index : int) (m : X64.Isa.mem) : X64.Isa.mem =
  let b = Graph.block g (Graph.block_of_instr g index) in
  let st = fresh () in
  for i = b.Graph.first to index - 1 do
    step st (Graph.instr g i)
  done;
  canon_mem st m

(* The block walk: the state before instruction [next] of block
   [block], carried from one query to the next (see {!Avail.cursor},
   which walks the same way). *)
type cursor = {
  graph : Graph.t;
  st : state;
  mutable block : int;
  mutable next : int;
}

let cursor (g : Graph.t) = { graph = g; st = fresh (); block = -1; next = 0 }

let operand_at (c : cursor) (index : int) (m : X64.Isa.mem) : X64.Isa.mem =
  let g = c.graph in
  let bid = Graph.block_of_instr g index in
  if bid <> c.block || index < c.next then begin
    c.block <- bid;
    c.next <- (Graph.block g bid).Graph.first;
    Array.fill c.st.copy 0 X64.Isa.num_regs None;
    Array.fill c.st.konst 0 X64.Isa.num_regs None
  end;
  while c.next < index do
    step c.st (Graph.instr g c.next);
    c.next <- c.next + 1
  done;
  canon_mem c.st m
