(* Test-only references: the allocating forms of the decoded stream,
   the register summaries, the block-graph builder and the liveness
   solve that the library replaced with flat arrays and bit masks.
   The equivalence tests hold the library to these, result for
   result. *)

open X64

(* --- the decoded stream -------------------------------------------- *)

(* the linear sweep as an array of (address, instruction, length)
   triples *)
let sweep_array ~(addr : int) (code : string) : (int * Isa.instr * int) array =
  let n = String.length code in
  let out = ref (Array.make ((n / 3) + 16) (addr, Isa.Hlt, 0)) in
  let k = ref 0 and off = ref 0 in
  while !off < n do
    let a = addr + !off in
    let i, len = Decode.decode ~addr:a code !off in
    if !k = Array.length !out then begin
      let bigger = Array.make (2 * !k) (addr, Isa.Hlt, 0) in
      Array.blit !out 0 bigger 0 !k;
      out := bigger
    end;
    !out.(!k) <- (a, i, len);
    incr k;
    off := !off + len
  done;
  Array.sub !out 0 !k

(* a flat stream as triples, for tests that read whole instructions *)
let triples (s : Disasm.stream) : (int * Isa.instr * int) array =
  Array.init (Disasm.length s) (fun k -> (s.addrs.(k), s.instrs.(k), s.lens.(k)))

(* the library's sweep as a list of triples *)
let sweep_list ~addr code =
  Array.to_list (triples (Disasm.sweep_stream ~addr code))

let stream_of_triples (t : (int * Isa.instr * int) array) : Disasm.stream =
  {
    Disasm.addrs = Array.map (fun (a, _, _) -> a) t;
    instrs = Array.map (fun (_, i, _) -> i) t;
    lens = Array.map (fun (_, _, l) -> l) t;
  }

(* --- register summaries as lists ----------------------------------- *)

let mem_uses (m : Isa.mem) : Isa.reg list =
  let add acc = function Some r -> r :: acc | None -> acc in
  add (add [] m.base) m.idx

let uses : Isa.instr -> Isa.reg list = function
  | Mov_rr (_, s) -> [ s ]
  | Mov_ri _ -> []
  | Load (_, _, m) -> mem_uses m
  | Store (_, m, s) -> s :: mem_uses m
  | Store_i (_, m, _) -> mem_uses m
  | Lea (_, m) -> mem_uses m
  | Alu_rr (_, d, s) -> [ d; s ]
  | Alu_ri (_, d, _) -> [ d ]
  | Mul_rr (d, s) | Div_rr (d, s) | Rem_rr (d, s) -> [ d; s ]
  | Neg r | Not r -> [ r ]
  | Shift_ri (_, r, _) -> [ r ]
  | Cmp_rr (a, b) | Test_rr (a, b) -> [ a; b ]
  | Cmp_ri (a, _) -> [ a ]
  | Setcc _ -> []
  | Jmp _ | Jcc _ | Call _ | Ret -> []
  | Call_ind r | Jmp_ind r -> [ r ]
  | Push r -> [ r; Isa.rsp ]
  | Pop _ -> [ Isa.rsp ]
  | Callrt _ -> [ Isa.rdi; Isa.rsi ]
  | Nop _ | Hlt | Trap -> []
  | Probe _ -> []
  | Check c -> mem_uses c.ck_mem

let defs : Isa.instr -> Isa.reg list = function
  | Mov_rr (d, _) | Mov_ri (d, _) | Load (_, d, _) | Lea (d, _) -> [ d ]
  | Store _ | Store_i _ -> []
  | Alu_rr (_, d, _) | Alu_ri (_, d, _) -> [ d ]
  | Mul_rr (d, _) | Div_rr (d, _) | Rem_rr (d, _) -> [ d ]
  | Neg d | Not d -> [ d ]
  | Shift_ri (_, d, _) -> [ d ]
  | Cmp_rr _ | Cmp_ri _ | Test_rr _ -> []
  | Setcc (_, d) -> [ d ]
  | Jmp _ | Jcc _ | Call _ | Ret -> []
  | Call_ind _ | Jmp_ind _ -> []
  | Push _ -> [ Isa.rsp ]
  | Pop d -> [ d; Isa.rsp ]
  | Callrt _ -> [ Isa.rax ]
  | Nop _ | Hlt | Trap -> []
  | Probe _ -> []
  | Check _ -> []

let mask_of = List.fold_left (fun m r -> m lor (1 lsl r)) 0

(* --- the block graph's edges, built through [flow_of] --------------- *)

type edges = {
  e_succs : int list array;
  e_fall_succs : int list array;
  e_preds : int list array;
  e_roots : int list;
  e_rpo : int array;
}

(* the builder over triples, with [flow_of] per instruction and
   successor lists deduplicated by [sort_uniq]; blocks are numbered
   as the library numbers them *)
let graph_edges ~(entry : int) (instrs : (int * Isa.instr * int) array) :
    edges =
  let n = Array.length instrs in
  let index = Hashtbl.create (2 * n + 1) in
  Array.iteri (fun i (a, _, _) -> Hashtbl.replace index a i) instrs;
  let at a = Option.value (Hashtbl.find_opt index a) ~default:(-1) in
  let leader = Array.make n false and indirect = Array.make n false in
  let ends = Array.make n false in
  let mark a =
    let i = at a in
    if i >= 0 then leader.(i) <- true
  in
  mark entry;
  Array.iteri
    (fun k (a, ins, len) ->
      (match ins with
      | Isa.Mov_ri (_, v) ->
        let i = at v in
        if i >= 0 then begin
          leader.(i) <- true;
          indirect.(i) <- true
        end
      | _ -> ());
      match Isa.flow_of ins with
      | Fall -> ()
      | Goto t ->
        ends.(k) <- true;
        mark t
      | Branch t | To_call t ->
        ends.(k) <- true;
        mark t;
        mark (a + len)
      | Dyn_call | Dyn_goto | Stop ->
        ends.(k) <- true;
        mark (a + len))
    instrs;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if i = 0 || leader.(i) || ends.(i - 1) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_of = Array.make n (-1) in
  let lasts =
    Array.init nb (fun b ->
        let last = if b + 1 < nb then starts.(b + 1) - 1 else n - 1 in
        for i = starts.(b) to last do
          block_of.(i) <- b
        done;
        last)
  in
  let block_at a =
    let i = at a in
    if i >= 0 then Some block_of.(i) else None
  in
  let succs = Array.make nb [] and fall_succs = Array.make nb [] in
  for b = 0 to nb - 1 do
    let la, li, ll = instrs.(lasts.(b)) in
    let next () = block_at (la + ll) in
    let fall, call_only =
      match Isa.flow_of li with
      | Fall -> ([ next () ], [])
      | Branch t -> ([ block_at t; next () ], [])
      | Goto t -> ([ block_at t ], [])
      | To_call t -> ([ next () ], [ block_at t ])
      | Dyn_call -> ([ next () ], [])
      | Dyn_goto | Stop -> ([], [])
    in
    let dedup l = List.sort_uniq Int.compare (List.filter_map Fun.id l) in
    fall_succs.(b) <- dedup fall;
    succs.(b) <- dedup (fall @ call_only)
  done;
  let preds = Array.make nb [] in
  for b = 0 to nb - 1 do
    List.iter (fun s -> preds.(s) <- b :: preds.(s)) succs.(b)
  done;
  let preds = Array.map List.rev preds in
  let is_root = Array.make nb false in
  (match block_at entry with Some b -> is_root.(b) <- true | None -> ());
  Array.iteri (fun i ind -> if ind then is_root.(block_of.(i)) <- true) indirect;
  let roots = List.filter (fun b -> is_root.(b)) (List.init nb Fun.id) in
  let visited = Array.make nb false in
  let post = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  List.iter dfs roots;
  {
    e_succs = succs;
    e_fall_succs = fall_succs;
    e_preds = preds;
    e_roots = roots;
    e_rpo = Array.of_list !post;
  }

(* --- liveness through the generic solver ---------------------------- *)

module Live_ref = struct
  module Graph = Dataflow.Graph
  module Live = Dataflow.Live

  (* live-before from live-after, with the def and use lists *)
  let transfer_instr (i : Isa.instr) (live : int) : int =
    let live =
      match Isa.flow_of i with
      | To_call _ | Dyn_call ->
        (live land lnot Live.caller_saved_mask land lnot Live.flags_bit)
        lor Live.reg_bit Isa.rsp
      | _ -> live
    in
    let live =
      List.fold_left (fun m r -> m land lnot (Live.reg_bit r)) live (defs i)
    in
    let live =
      if Isa.writes_flags i then live land lnot Live.flags_bit else live
    in
    let live = List.fold_left (fun m r -> m lor Live.reg_bit r) live (uses i) in
    if Isa.reads_flags i then live lor Live.flags_bit else live

  let exit_live (b : Graph.block) : int =
    match b.Graph.term with
    | Stop -> Live.reg_bit Isa.rax lor Live.callee_saved_mask
    | _ -> Live.all_live

  module Problem = struct
    type fact = int

    let equal = Int.equal
    let direction = `Backward
    let init = 0
    let boundary = 0
    let join = ( lor )
    let succs _ (b : Graph.block) = b.Graph.fall_succs

    let transfer (g : Graph.t) (b : Graph.block) (out : int) : int =
      let live = ref (if b.Graph.fall_succs = [] then exit_live b else out) in
      for i = b.Graph.last downto b.Graph.first do
        live := transfer_instr (Graph.instr g i) !live
      done;
      !live
  end

  module S = Dataflow.Solver.Make (Problem)

  (* (live_in, live_out) per block *)
  let solve (g : Graph.t) : int array * int array =
    let r = S.solve g in
    let live_out =
      Array.map
        (fun (b : Graph.block) ->
          if b.Graph.fall_succs = [] then exit_live b
          else r.S.out_facts.(b.Graph.id))
        g.Graph.blocks
    in
    (r.S.in_facts, live_out)

  let live_before (g : Graph.t) ~live_out (index : int) : int =
    let bid = Graph.block_of_instr g index in
    let b = Graph.block g bid in
    let live = ref live_out.(bid) in
    for i = b.Graph.last downto index do
      live := transfer_instr (Graph.instr g i) !live
    done;
    !live
end
