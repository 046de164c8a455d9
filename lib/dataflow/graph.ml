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
  stream : X64.Disasm.stream;
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

(* successor lists of at most two blocks, [-1] standing for "no
   instruction starts there": sorted and duplicate-free *)
let one x = if x < 0 then [] else [ x ]

let two x y =
  if x < 0 then one y
  else if y < 0 || y = x then [ x ]
  else if x < y then [ x; y ]
  else [ y; x ]

(** Leaders are the entry, direct branch/call targets, fall-throughs of
    branches, calls and block-ending transfers, and every code-pointer
    constant; the constants are also potential indirect-transfer
    targets, hence roots.  An address only counts when an instruction
    starts there. *)
let of_instrs ~(entry : int) (stream : X64.Disasm.stream) : t =
  let addrs = stream.addrs and instrs = stream.instrs and lens = stream.lens in
  let n = Array.length addrs in
  let lo = ref max_int and hi = ref min_int in
  for k = 0 to n - 1 do
    let a = addrs.(k) in
    if a < !lo then lo := a;
    if a + lens.(k) > !hi then hi := a + lens.(k)
  done;
  let base = if n = 0 then 0 else !lo in
  let index_of = Array.make (if n = 0 then 0 else !hi - base) (-1) in
  for k = 0 to n - 1 do
    index_of.(addrs.(k) - base) <- k
  done;
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
  for k = 0 to n - 1 do
    match instrs.(k) with
    | X64.Isa.Mov_ri (_, v) ->
      let i = at v in
      if i >= 0 then begin
        leader.(i) <- true;
        indirect.(i) <- true
      end
    | Jmp t ->
      ends.(k) <- true;
      mark t
    | Jcc (_, t) | Call t ->
      ends.(k) <- true;
      mark t;
      mark (addrs.(k) + lens.(k))
    | Call_ind _ | Jmp_ind _ | Ret | Hlt ->
      ends.(k) <- true;
      mark (addrs.(k) + lens.(k))
    | _ -> ()
  done;
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
        {
          id = b;
          first;
          last;
          addr = addrs.(first);
          term = X64.Isa.flow_of instrs.(last);
          succs = [];
          fall_succs = [];
          preds = [];
        })
  in
  let block_at addr =
    let i = at addr in
    if i >= 0 then block_of.(i) else -1
  in
  Array.iter
    (fun b ->
      let next () = block_at (addrs.(b.last) + lens.(b.last)) in
      match instrs.(b.last) with
      | X64.Isa.Jmp t ->
        b.fall_succs <- one (block_at t);
        b.succs <- b.fall_succs
      | Jcc (_, t) ->
        b.fall_succs <- two (block_at t) (next ());
        b.succs <- b.fall_succs
      | Call t ->
        let nx = next () in
        b.fall_succs <- one nx;
        b.succs <- two nx (block_at t)
      | Jmp_ind _ | Ret | Hlt -> ()
      | _ ->
        b.fall_succs <- one (next ());
        b.succs <- b.fall_succs)
    blocks;
  Array.iter
    (fun b -> List.iter (fun s -> blocks.(s).preds <- b.id :: blocks.(s).preds) b.succs)
    blocks;
  Array.iter (fun b -> b.preds <- List.rev b.preds) blocks;
  (* roots: the entry block plus every indirect-target block, collected
     per block so the list comes out sorted and duplicate-free *)
  let is_root = Array.make nb false in
  (let e = block_at entry in
   if e >= 0 then is_root.(e) <- true);
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
  { stream; base; index_of; leader; roots; blocks; block_of; rpo; rpo_index }

let recover ~entry code =
  of_instrs ~entry (X64.Disasm.sweep_stream ~addr:entry code)

let stream t = t.stream
let num_instrs t = Array.length t.stream.addrs
let instr t i = t.stream.instrs.(i)
let addr t i = t.stream.addrs.(i)
let len t i = t.stream.lens.(i)

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
