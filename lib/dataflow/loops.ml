(** Natural-loop forest and loop-aware value-range analysis.

    This is the static-analysis half of the CHOP-style check-hoisting
    optimization: find the natural loops of the recovered CFG, find
    each loop's {e preheader}, recognize the loop's counted-guard /
    induction-variable shape on canonicalized operands, and derive for
    a memory operand inside the loop the convex hull
    [[base + lo, base + hi)] of every address it touches across the
    loop's iterations.  The rewriter hoists one widened check over
    that hull into the preheader; the soundness linter re-runs exactly
    this derivation ({!member_hoist} is shared, like {!Canon}) and
    proves the emitted check subsumes every per-iteration check it
    replaced.

    Soundness is asymmetric:

    - {e no missed detection}: the hull must cover every address the
      member can access, so [member_hoist] only fires when the
      induction variable's initial value, step and exclusive limit are
      all compile-time constants and the member executes on every
      iteration (its block dominates every latch, and precedes the
      unique increment);
    - {e no false positive}: the hull must contain only addresses a
      correct, terminating execution actually accesses once the
      preheader runs, so the loop must be entered unconditionally from
      the preheader (single fall-through edge), run at least one
      iteration ([init < limit]), and exit only through the header
      guard — no breaks, calls, or other side exits that could cut the
      iteration space short.

    Irreducible cycles have no back edge ({!Dom.is_back_edge}), hence
    no natural loop, hence no hoisting — the degraded behaviour is
    "keep every per-iteration check", never a crash or a wrong hull. *)

type loop = {
  header : int;         (** header block id *)
  latches : int list;   (** back-edge sources, sorted *)
  body : int list;      (** member block ids (header included), sorted *)
  parent : int option;  (** index of the innermost enclosing loop *)
  depth : int;          (** nesting depth; outermost = 1 *)
  preheader : int option;
      (** the unique out-of-loop predecessor of the header, accepted
          only when it enters the loop unconditionally (its single
          successor is the header, by fall-through) and dominates the
          header — the block whose last instruction hosts hoisted
          checks *)
}

type t = {
  graph : Graph.t;
  dom : Dom.t;
  loops : loop array;     (** indexed by loop id, sorted by header *)
  innermost : int array;  (** block id -> innermost loop id, or -1 *)
}

let in_body (l : loop) (b : int) = List.mem b l.body

(* the preheader: header preds minus latches must be a single block
   outside the loop, falling through into the header (its only
   successor) and dominating it.  A conditional or side entry would
   execute a hoisted check on paths that never run the loop. *)
let find_preheader (g : Graph.t) (dom : Dom.t) ~(header : int)
    ~(body : bool array) : int option =
  match
    List.filter (fun p -> not body.(p)) (Graph.block g header).Graph.preds
  with
  | [ p ] ->
    let pb = Graph.block g p in
    (match (pb.Graph.succs, pb.Graph.term) with
     | [ s ], X64.Isa.Fall when s = header && Dom.dominates dom p header ->
       Some p
     | _ -> None)
  | _ -> None

let analyze (g : Graph.t) (dom : Dom.t) : t =
  let nb = Graph.num_blocks g in
  (* group latches per header: one natural loop per header, its body
     the union over that header's back edges *)
  let latches_of = Hashtbl.create 8 in
  List.iter
    (fun (u, h) ->
      Hashtbl.replace latches_of h
        (u :: Option.value (Hashtbl.find_opt latches_of h) ~default:[]))
    (Dom.back_edges dom);
  let headers =
    List.sort compare (Hashtbl.fold (fun h _ acc -> h :: acc) latches_of [])
  in
  let raw =
    List.map
      (fun header ->
        let latches =
          List.sort_uniq compare (Hashtbl.find latches_of header)
        in
        (* body: header plus everything reaching a latch backwards
           without passing the header *)
        let body = Array.make nb false in
        body.(header) <- true;
        let stack = ref [] in
        let push b =
          if not body.(b) then begin
            body.(b) <- true;
            stack := b :: !stack
          end
        in
        List.iter push latches;
        let rec drain () =
          match !stack with
          | [] -> ()
          | b :: rest ->
            stack := rest;
            List.iter push (Graph.block g b).Graph.preds;
            drain ()
        in
        drain ();
        (header, latches, body))
      headers
  in
  let body_size body = Array.fold_left (fun n b -> if b then n + 1 else n) 0 body in
  let loops =
    Array.of_list
      (List.map
         (fun (header, latches, body) ->
           let members = ref [] in
           for b = nb - 1 downto 0 do
             if body.(b) then members := b :: !members
           done;
           {
             header;
             latches;
             body = !members;
             parent = None;
             depth = 1;
             preheader = find_preheader g dom ~header ~body;
           })
         raw)
  in
  let sizes = Array.of_list (List.map (fun (_, _, b) -> body_size b) raw) in
  let bodies = Array.of_list (List.map (fun (_, _, b) -> b) raw) in
  (* nesting: the parent of loop [i] is the smallest distinct loop
     whose body contains [i]'s header *)
  let parent_of i =
    let best = ref None in
    Array.iteri
      (fun j body ->
        if j <> i && body.(loops.(i).header) then
          match !best with
          | Some k when sizes.(k) <= sizes.(j) -> ()
          | _ -> best := Some j)
      bodies;
    !best
  in
  Array.iteri (fun i l -> loops.(i) <- { l with parent = parent_of i }) loops;
  let rec depth i =
    match loops.(i).parent with None -> 1 | Some p -> 1 + depth p
  in
  Array.iteri (fun i l -> loops.(i) <- { l with depth = depth i }) loops;
  (* innermost loop per block: the smallest body containing it *)
  let innermost = Array.make nb (-1) in
  for b = 0 to nb - 1 do
    Array.iteri
      (fun j body ->
        if body.(b)
           && (innermost.(b) = -1 || sizes.(j) < sizes.(innermost.(b)))
        then innermost.(b) <- j)
      bodies
  done;
  { graph = g; dom; loops; innermost }

let innermost_loop (t : t) (block : int) : int option =
  if block < 0 || block >= Array.length t.innermost then None
  else match t.innermost.(block) with -1 -> None | i -> Some i

(* ------------------------------------------------------------------ *)
(* Counted-guard and induction-variable recognition                    *)
(* ------------------------------------------------------------------ *)

(* The recognized shape is the one every counted loop of the MiniC
   code generator takes (and any binary structured like it):

     preheader:  ... ; iv <- k0 (constant, via Canon)   ; fall through
     header:     guard on iv vs a constant limit; one exit successor
     body:       ... member ... ; the single [iv += step] ; latch
                                                           back-jumps

   The guard's compared register is canonicalized, so the generator's
   scratch-register copy of the loop counter resolves to its home
   register. *)

type guard = {
  gd_iv : X64.Isa.reg;  (** canonical induction register *)
  gd_limit : int;       (** exclusive upper bound while iterating *)
}

(* canonical register state after running [first..last] of a block *)
let state_through (g : Graph.t) ~(first : int) ~(last : int) : Canon.state =
  let st = Canon.fresh () in
  for i = first to last do
    Canon.step st (Graph.instr g i)
  done;
  st

let recognize_guard (t : t) (l : loop) : guard option =
  let g = t.graph in
  let hb = Graph.block g l.header in
  match Graph.instr g hb.Graph.last with
  | X64.Isa.Jcc (cc, target) -> (
    let target_block =
      match Graph.index_at g target with
      | Some i -> Some (Graph.block_of_instr g i)
      | None -> None
    in
    let fall_block =
      match
        List.filter (fun s -> Some s <> target_block) hb.Graph.succs
      with
      | [ f ] -> Some f
      | _ -> None
    in
    match (target_block, fall_block) with
    | Some tb, Some fb -> (
      let tin = in_body l tb and fin = in_body l fb in
      (* exactly one successor stays in the loop *)
      if tin = fin then None
      else
        (* the last flag-writing instruction decides the guard; it must
           be a comparison against a known constant, and nothing after
           it may clobber the flags before the branch *)
        let cmp = ref None in
        for i = hb.Graph.first to hb.Graph.last - 1 do
          let instr = Graph.instr g i in
          if X64.Isa.writes_flags instr then cmp := Some (i, instr)
        done;
        match !cmp with
        | Some (ci, (X64.Isa.Cmp_rr _ | X64.Isa.Cmp_ri _)) -> (
          let st = state_through g ~first:hb.Graph.first ~last:(ci - 1) in
          let operands =
            match Graph.instr g ci with
            | X64.Isa.Cmp_rr (a, b) -> (
              match (st.Canon.konst.(a), st.Canon.konst.(b)) with
              | None, Some n -> Some (Canon.canon_reg st a, n)
              | _ -> None)
            | X64.Isa.Cmp_ri (a, n) ->
              if st.Canon.konst.(a) = None then
                Some (Canon.canon_reg st a, n)
              else None
            | _ -> None
          in
          match operands with
          | None -> None
          | Some (iv, n) -> (
            (* continue-condition semantics: signed or unsigned
               counted-up guards only (the [member_hoist] requirement
               [0 <= init] makes the two agree) *)
            let limit =
              if tin then
                (* branch taken stays in the loop: continue when cc *)
                match cc with
                | X64.Isa.Lt | X64.Isa.Ult -> Some n
                | X64.Isa.Le | X64.Isa.Ule -> Some (n + 1)
                | _ -> None
              else
                (* branch taken exits: continue when (not cc) *)
                match cc with
                | X64.Isa.Ge | X64.Isa.Uge -> Some n
                | X64.Isa.Gt | X64.Isa.Ugt -> Some (n + 1)
                | _ -> None
            in
            match limit with
            | Some gd_limit -> Some { gd_iv = iv; gd_limit }
            | None -> None))
        | _ -> None)
    | _ -> None)
  | _ -> None

(* the single [iv <- iv + step] of the loop, as (block, index, step).
   Any other definition of [iv] anywhere in the body disqualifies the
   loop: the range progression would no longer be arithmetic. *)
let find_increment (t : t) (l : loop) (li : int) (iv : X64.Isa.reg) :
    (int * int * int) option =
  let g = t.graph in
  let defs = ref [] in
  List.iter
    (fun b ->
      let blk = Graph.block g b in
      for i = blk.Graph.first to blk.Graph.last do
        let instr = Graph.instr g i in
        if X64.Isa.def_mask instr land (1 lsl iv) <> 0 then
          defs := (b, i, instr) :: !defs
      done)
    l.body;
  match !defs with
  | [ (b, i, X64.Isa.Alu_ri (X64.Isa.Add, r, step)) ]
    when r = iv && step >= 1
         (* inside an inner loop it would run more than once per
            iteration of [l]; in the header it would run on the final,
            guard-failing entry too *)
         && t.innermost.(b) = li
         && b <> l.header
         && List.for_all (fun latch -> Dom.dominates t.dom b latch) l.latches
    -> Some (b, i, step)
  | _ -> None

(* structural conditions on the whole body: the only way out is the
   header guard, and nothing inside can invalidate a checked base or
   terminate early (allocator calls free the guarded object — and kill
   the availability fact the linter's proof rests on; a call or exit
   cuts the iteration space short, breaking the hull's "actually
   accessed" guarantee) *)
let body_well_formed (t : t) (l : loop) : bool =
  let g = t.graph in
  List.for_all
    (fun b ->
      let blk = Graph.block g b in
      let exits_ok =
        if b = l.header then true
        else
          blk.Graph.succs <> [] && List.for_all (in_body l) blk.Graph.succs
      in
      exits_ok
      &&
      let ok = ref true in
      for i = blk.Graph.first to blk.Graph.last do
        match Graph.instr g i with
        | X64.Isa.Callrt (X64.Isa.Malloc | X64.Isa.Free | X64.Isa.Exit)
        | X64.Isa.Call _ | X64.Isa.Call_ind _ | X64.Isa.Jmp_ind _
        | X64.Isa.Ret | X64.Isa.Hlt ->
          ok := false
        | _ -> ()
      done;
      !ok)
    l.body

(* no instruction of the body redefines a register of the mask
   [regs]; the hoisted operand's registers must hold the same values
   at the preheader and at every member execution *)
let invariant_regs (t : t) (l : loop) (regs : int) : bool =
  let g = t.graph in
  List.for_all
    (fun b ->
      let blk = Graph.block g b in
      let ok = ref true in
      for i = blk.Graph.first to blk.Graph.last do
        if X64.Isa.def_mask (Graph.instr g i) land regs <> 0 then ok := false
      done;
      !ok)
    l.body

(* ------------------------------------------------------------------ *)
(* The shared hull derivation                                          *)
(* ------------------------------------------------------------------ *)

type hoist = {
  h_index : int;  (** instruction index of the preheader patch site *)
  h_addr : int;   (** its address (the hoisted check's site) *)
  h_mem : X64.Isa.mem;  (** widened operand ([disp = 0]) *)
  h_lo : int;
  h_hi : int;     (** access hull [lo, hi) relative to [h_mem] *)
}

(** [member_hoist t ~index ~mem ~bytes]: can the access [mem] (in
    canonical form, as collected by the rewriter and re-derived by the
    linter) at instruction [index] be covered by one widened check in
    its innermost loop's preheader?  Returns the patch point and the
    convex hull of every address the access touches across the loop,
    or [None] when any proof obligation fails.  Deterministic and
    side-effect free: the rewriter plans from it and the soundness
    linter independently re-derives with it, so the two always agree. *)
let member_hoist (t : t) ~(index : int) ~(mem : X64.Isa.mem) ~(bytes : int) :
    hoist option =
  let g = t.graph in
  let bid = Graph.block_of_instr g index in
  match innermost_loop t bid with
  | None -> None
  | Some li -> (
    let l = t.loops.(li) in
    match l.preheader with
    | None -> None
    | Some p when bid = l.header -> (
      (* a header-resident access also runs on the final, guard-failing
         entry, one step beyond the hull *)
      ignore p;
      None)
    | Some p -> (
      match recognize_guard t l with
      | None -> None
      | Some { gd_iv; gd_limit } -> (
        if not (body_well_formed t l) then None
        else if
          not (List.for_all (fun la -> Dom.dominates t.dom bid la) l.latches)
        then None
        else
          match find_increment t l li gd_iv with
          | None -> None
          | Some (inc_block, inc_index, step) -> (
            (* the member must read the induction variable before the
               iteration's increment *)
            let before_increment =
              if bid = inc_block then index < inc_index
              else Dom.dominates t.dom bid inc_block
            in
            if not before_increment then None
            else
              (* initial value: constant at the end of the preheader *)
              let pb = Graph.block g p in
              let st =
                state_through g ~first:pb.Graph.first ~last:pb.Graph.last
              in
              match st.Canon.konst.(gd_iv) with
              | None -> None
              | Some init ->
                if init < 0 || init >= gd_limit then None
                else
                  (* iv takes init, init+step, ..., last < limit; the
                     member executes at each of them *)
                  let last =
                    init + (gd_limit - 1 - init) / step * step
                  in
                  let hull =
                    match (mem.X64.Isa.base, mem.X64.Isa.idx) with
                    | None, _ -> None
                    | Some _, Some r when r = gd_iv ->
                      Some
                        ( { mem with X64.Isa.idx = None; scale = 1; disp = 0 },
                          mem.X64.Isa.disp + (init * mem.X64.Isa.scale),
                          mem.X64.Isa.disp + (last * mem.X64.Isa.scale) + bytes
                        )
                    | Some _, (None | Some _) ->
                      (* loop-invariant operand: the hull is the access
                         itself, checked once instead of every
                         iteration *)
                      Some
                        ( { mem with X64.Isa.disp = 0 },
                          mem.X64.Isa.disp,
                          mem.X64.Isa.disp + bytes )
                  in
                  (match hull with
                   | None -> None
                   | Some (wmem, lo, hi) ->
                     let regs = X64.Isa.mem_use_mask wmem in
                     let last_instr = Graph.instr g pb.Graph.last in
                     let patch_ok =
                       (* the check runs before the preheader's last
                          instruction: that instruction must not change
                          the operand, kill the fact, or exit *)
                       (match last_instr with
                        | X64.Isa.Callrt
                            (X64.Isa.Malloc | X64.Isa.Free | X64.Isa.Exit) ->
                          false
                        | _ -> true)
                       && X64.Isa.def_mask last_instr land regs = 0
                     in
                     if
                       patch_ok && lo < hi
                       && X64.Encode.fits_i32 lo
                       && X64.Encode.fits_i32 hi
                       && invariant_regs t l regs
                     then
                       Some
                         {
                           h_index = pb.Graph.last;
                           h_addr = Graph.addr g pb.Graph.last;
                           h_mem = wmem;
                           h_lo = lo;
                           h_hi = hi;
                         }
                     else None)))))
