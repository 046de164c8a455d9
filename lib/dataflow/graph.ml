(** Explicit basic-block graph over a recovered instruction stream.

    An instruction array plus a leader set is enough for the
    rewriter's block-local scans; this module adds blocks with
    successor/predecessor edges, a reverse-postorder numbering, and a
    root set, which the dominator, liveness and availability analyses
    consume.

    Leader recovery lives here (see {!leaders}) so the rewriter's
    graph and the soundness linter's re-disassembly provably agree on
    block structure: both call the same function.

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
  index_of : (int, int) Hashtbl.t;   (* addr -> instr index *)
  leaders : (int, unit) Hashtbl.t;   (* block start addresses *)
  roots : int list;                  (* root block ids (entry + indirect targets) *)
  blocks : block array;
  block_of : int array;              (* instr index -> block id *)
  rpo : int array;                   (* reachable block ids in reverse postorder *)
  rpo_index : int array;             (* block id -> rpo position; -1 unreachable *)
}

(** Leader recovery shared by the rewriter and the linter: the entry,
    direct branch/call targets, fall-throughs of branches, calls and
    block-ending transfers, and every code-pointer constant.  Returns
    the leader set and the subset that are potential indirect-transfer
    targets (code-pointer constants). *)
let leaders ~(entry : int) (instrs : (int * X64.Isa.instr * int) array) :
    (int, unit) Hashtbl.t * (int, unit) Hashtbl.t =
  let index_of = Hashtbl.create (Array.length instrs) in
  Array.iteri (fun i (a, _, _) -> Hashtbl.replace index_of a i) instrs;
  let leaders = Hashtbl.create 256 and indirect = Hashtbl.create 16 in
  let mark a = if Hashtbl.mem index_of a then Hashtbl.replace leaders a () in
  mark entry;
  Array.iter
    (fun (_, i, _) ->
      match i with
      | X64.Isa.Mov_ri (_, v) when Hashtbl.mem index_of v ->
        Hashtbl.replace leaders v ();
        Hashtbl.replace indirect v ()
      | _ -> ())
    instrs;
  Array.iter
    (fun (a, i, len) ->
      match X64.Isa.flow_of i with
      | Fall -> ()
      | Goto t -> mark t
      | Branch t ->
        mark t;
        mark (a + len)
      | To_call t ->
        mark t;
        mark (a + len)
      | Dyn_call | Dyn_goto | Stop -> mark (a + len))
    instrs;
  (leaders, indirect)

let of_instrs ~(entry : int) (instrs : (int * X64.Isa.instr * int) array) : t =
  let n = Array.length instrs in
  let index_of = Hashtbl.create (max 16 n) in
  Array.iteri (fun i (a, _, _) -> Hashtbl.replace index_of a i) instrs;
  let leaders, indirect = leaders ~entry instrs in
  (* block boundaries: a block starts at a leader or after a
     terminator (so unreachable straight-line code still forms blocks) *)
  let starts = ref [] in
  Array.iteri
    (fun i (a, _, _) ->
      let after_term =
        i > 0
        &&
        let _, p, _ = instrs.(i - 1) in
        X64.Isa.flow_of p <> X64.Isa.Fall
      in
      if i = 0 || Hashtbl.mem leaders a || after_term then starts := i :: !starts)
    instrs;
  let starts = Array.of_list (List.rev !starts) in
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
    match Hashtbl.find_opt index_of addr with
    | Some i -> Some block_of.(i)
    | None -> None
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
        List.sort_uniq compare (List.filter_map (fun x -> x) l)
      in
      b.fall_succs <- dedup fall;
      b.succs <- dedup (fall @ call_only))
    blocks;
  Array.iter
    (fun b -> List.iter (fun s -> blocks.(s).preds <- b.id :: blocks.(s).preds) b.succs)
    blocks;
  Array.iter (fun b -> b.preds <- List.rev b.preds) blocks;
  (* roots: the entry block plus every indirect-target block *)
  let roots = ref [] in
  (match block_at entry with Some b -> roots := [ b ] | None -> ());
  Hashtbl.iter
    (fun a () ->
      match block_at a with
      | Some b when not (List.mem b !roots) -> roots := b :: !roots
      | _ -> ())
    indirect;
  let roots = List.sort compare !roots in
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
  { instrs; index_of; leaders; roots; blocks; block_of; rpo; rpo_index }

let recover ~entry code =
  of_instrs ~entry (Array.of_list (X64.Disasm.sweep ~addr:entry code))

let num_blocks t = Array.length t.blocks
let block t b = t.blocks.(b)
let block_of_instr t i = t.block_of.(i)
let index_at t addr = Hashtbl.find_opt t.index_of addr
let is_leader t addr = Hashtbl.mem t.leaders addr
let roots t = t.roots
let rpo t = t.rpo

let reachable t b = t.rpo_index.(b) >= 0
(** A block unreachable from every root can still run (e.g. a callee
    entered only through an indirect call, whose edge the graph lacks);
    optimizations must leave such blocks alone. *)
