(** Explicit basic-block graph over a recovered instruction stream.

    An instruction array plus a leader set is enough for the
    rewriter's block-local scans; this module adds blocks with
    successor/predecessor edges, a reverse-postorder numbering, and a
    root set, which the dominator, liveness and availability analyses
    consume.

    Leader recovery lives here, in {!of_instrs}, so the rewriter's
    graph and the soundness linter's re-disassembly provably agree on
    block structure: both build their graph with the same function.
    The address index is one dense array over the stream's address
    span, built once; leaders, indirect targets, edges and roots are
    all resolved through it.

    Edge policy (documented assumptions, all conservative for the
    analyses built on top):
    - a direct call edges to {e both} its target and its return
      fall-through.  Dominance stays sound: any real trace maps onto a
      graph path by short-cutting completed call/return pairs, so
      "every graph path passes A" implies "every trace passes A";
    - an indirect call edges only to its fall-through (the target is
      statically unknown; callee entries reachable only indirectly are
      therefore graph-unreachable, and clients must not optimize
      them — see {!reachable});
    - an indirect jump has no successors;
    - every code-pointer constant in the instruction stream is a
      {e root}: an indirect transfer may land there at any time, so
      forward analyses must assume nothing on entry to such a block. *)

type block = {
  id : int;
  first : int;  (** index of the block's first instruction *)
  last : int;   (** index of the block's last instruction (inclusive) *)
  addr : int;   (** address of the first instruction *)
  term : X64.Isa.flow;  (** control-flow class of the last instruction *)
  mutable succs : int list;      (** includes direct-call targets *)
  mutable fall_succs : int list; (** successors minus call-target edges *)
  mutable preds : int list;
}

type t = {
  instrs : (int * X64.Isa.instr * int) array;
  base : int;                        (* lowest instruction address *)
  index_of : int array;              (* addr - base -> instr index; -1 if none *)
  leader : bool array;               (* instr index -> starts a leader *)
  roots : int list;                  (* root block ids (entry + indirect targets) *)
  blocks : block array;
  block_of : int array;              (* instr index -> block id *)
  rpo : int array;                   (* reachable block ids in reverse postorder *)
  rpo_index : int array;             (* block id -> rpo position; -1 unreachable *)
}

let lookup ~base index_of addr =
  let o = addr - base in
  if o >= 0 && o < Array.length index_of then index_of.(o) else -1

(** Leaders are the entry, direct branch/call targets, fall-throughs of
    branches, calls and block-ending transfers, and every code-pointer
    constant; the constants are also potential indirect-transfer
    targets, hence roots.  An address only counts when an instruction
    starts there. *)
let of_instrs ~(entry : int) (instrs : (int * X64.Isa.instr * int) array) : t =
  let n = Array.length instrs in
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun (a, _, len) ->
      if a < !lo then lo := a;
      if a + len > !hi then hi := a + len)
    instrs;
  let base = if n = 0 then 0 else !lo in
  let index_of = Array.make (if n = 0 then 0 else !hi - base) (-1) in
  Array.iteri (fun i (a, _, _) -> index_of.(a - base) <- i) instrs;
  let at addr = lookup ~base index_of addr in
  (* one pass: leaders, indirect targets, and which instructions end a
     block by their own flow *)
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
      | X64.Isa.Mov_ri (_, v) ->
        let i = at v in
        if i >= 0 then begin
          leader.(i) <- true;
          indirect.(i) <- true
        end
      | _ -> ());
      match X64.Isa.flow_of ins with
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
  (* block boundaries: a block starts at a leader or after a
     terminator (so unreachable straight-line code still forms blocks) *)
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if i = 0 || leader.(i) || ends.(i - 1) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let block_of = Array.make n (-1) in
  let blocks =
    Array.init nb (fun b ->
        let first = starts.(b) in
        let last = if b + 1 < nb then starts.(b + 1) - 1 else n - 1 in
        for i = first to last do
          block_of.(i) <- b
        done;
        let addr, _, _ = instrs.(first) in
        let _, ti, _ = instrs.(last) in
        {
          id = b;
          first;
          last;
          addr;
          term = X64.Isa.flow_of ti;
          succs = [];
          fall_succs = [];
          preds = [];
        })
  in
  let block_at addr =
    let i = at addr in
    if i >= 0 then Some block_of.(i) else None
  in
  Array.iter
    (fun b ->
      let la, _, ll = instrs.(b.last) in
      let next () = block_at (la + ll) in
      let tgt t = block_at t in
      let fall, call_only =
        match b.term with
        | X64.Isa.Fall -> ([ next () ], [])
        | Branch t -> ([ tgt t; next () ], [])
        | Goto t -> ([ tgt t ], [])
        | To_call t -> ([ next () ], [ tgt t ])
        | Dyn_call -> ([ next () ], [])
        | Dyn_goto | Stop -> ([], [])
      in
      let dedup l =
        List.sort_uniq Int.compare (List.filter_map (fun x -> x) l)
      in
      b.fall_succs <- dedup fall;
      b.succs <- dedup (fall @ call_only))
    blocks;
  Array.iter
    (fun b -> List.iter (fun s -> blocks.(s).preds <- b.id :: blocks.(s).preds) b.succs)
    blocks;
  Array.iter (fun b -> b.preds <- List.rev b.preds) blocks;
  (* roots: the entry block plus every indirect-target block, collected
     per block so the list comes out sorted and duplicate-free *)
  let is_root = Array.make nb false in
  (match block_at entry with Some b -> is_root.(b) <- true | None -> ());
  Array.iteri (fun i ind -> if ind then is_root.(block_of.(i)) <- true) indirect;
  let roots = ref [] in
  for b = nb - 1 downto 0 do
    if is_root.(b) then roots := b :: !roots
  done;
  let roots = !roots in
  (* reverse postorder over [succs] from all roots *)
  let visited = Array.make nb false in
  let post = ref [] in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs blocks.(b).succs;
      post := b :: !post
    end
  in
  List.iter dfs roots;
  let rpo = Array.of_list !post in
  let rpo_index = Array.make nb (-1) in
  Array.iteri (fun i b -> rpo_index.(b) <- i) rpo;
  { instrs; base; index_of; leader; roots; blocks; block_of; rpo; rpo_index }

let recover ~entry code =
  of_instrs ~entry (X64.Disasm.sweep_array ~addr:entry code)

let num_blocks t = Array.length t.blocks
let block t b = t.blocks.(b)
let block_of_instr t i = t.block_of.(i)

let index_at t addr =
  let i = lookup ~base:t.base t.index_of addr in
  if i >= 0 then Some i else None

let is_leader t addr =
  let i = lookup ~base:t.base t.index_of addr in
  i >= 0 && t.leader.(i)
let roots t = t.roots
let rpo t = t.rpo

let reachable t b = t.rpo_index.(b) >= 0
(** A block unreachable from every root can still run (e.g. a callee
    entered only through an indirect call, whose edge the graph lacks);
    optimizations must leave such blocks alone. *)
