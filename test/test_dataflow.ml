(* The dataflow subsystem: block graph, dominators, liveness,
   availability/canonicalization, the elimination table, and the
   rewrite-soundness linter — on hand-built CFG fixtures with known
   solutions, plus behaviour-preservation properties of global check
   elimination over workload subsets. *)

open X64
module Df = Dataflow
module Rw = Rewriter.Rewrite

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let i x = Asm.I x

let graph_of items =
  let code, labels = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  let stream = Disasm.sweep_stream ~addr:Lowfat.Layout.code_base code in
  let g = Df.Graph.of_instrs ~entry:Lowfat.Layout.code_base stream in
  let block_at name =
    match Df.Graph.index_at g (Hashtbl.find labels name) with
    | Some idx -> Df.Graph.block_of_instr g idx
    | None -> Alcotest.failf "label %s is not an instruction boundary" name
  in
  (g, block_at)

let assemble_binary items : Binfmt.Relf.t =
  let code, _ = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  {
    Binfmt.Relf.entry = Lowfat.Layout.code_base;
    pic = false;
    stripped = true;
    sections =
      [
        Binfmt.Relf.section ~executable:true ~name:".text"
          ~addr:Lowfat.Layout.code_base code;
      ];
  }

(* --- fixtures: dominators ------------------------------------------- *)

(*        entry
          /   \
       left   right     (diamond)
          \   /
          join          *)
let diamond =
  [
    Asm.Label "entry";
    i (Isa.Mov_ri (Isa.rax, 1));
    Asm.Jcc_l (Isa.Eq, "right");
    Asm.Label "left";
    i (Isa.Mov_ri (Isa.rbx, 2));
    Asm.Jmp_l "join";
    Asm.Label "right";
    i (Isa.Mov_ri (Isa.rcx, 3));
    Asm.Label "join";
    i (Isa.Alu_ri (Isa.Add, Isa.rax, 1));
    i Isa.Ret;
  ]

let test_dom_diamond () =
  let g, blk = graph_of diamond in
  let dom = Df.Dom.compute g in
  let entry = blk "entry" and left = blk "left" in
  let right = blk "right" and join = blk "join" in
  Alcotest.(check (option int)) "idom left" (Some entry) (Df.Dom.idom dom left);
  Alcotest.(check (option int)) "idom right" (Some entry)
    (Df.Dom.idom dom right);
  Alcotest.(check (option int)) "idom join = fork, not a branch" (Some entry)
    (Df.Dom.idom dom join);
  Alcotest.(check bool) "entry dominates join" true
    (Df.Dom.dominates dom entry join);
  Alcotest.(check bool) "left does not dominate join" false
    (Df.Dom.dominates dom left join);
  Alcotest.(check bool) "reflexive" true (Df.Dom.dominates dom join join)

(*  entry -> head <-> body ; head -> exit  (natural loop) *)
let loop =
  [
    Asm.Label "entry";
    i (Isa.Mov_ri (Isa.rbx, 0));
    Asm.Label "head";
    i (Isa.Alu_ri (Isa.Sub, Isa.rbx, 10));   (* sets flags off rbx *)
    Asm.Jcc_l (Isa.Ge, "exit");
    Asm.Label "body";
    i (Isa.Alu_ri (Isa.Add, Isa.rbx, 1));
    Asm.Jmp_l "head";
    Asm.Label "exit";
    i Isa.Ret;
  ]

let test_dom_loop () =
  let g, blk = graph_of loop in
  let dom = Df.Dom.compute g in
  let entry = blk "entry" and head = blk "head" in
  let body = blk "body" and exit_ = blk "exit" in
  Alcotest.(check (option int)) "idom head" (Some entry) (Df.Dom.idom dom head);
  Alcotest.(check (option int)) "idom body" (Some head) (Df.Dom.idom dom body);
  Alcotest.(check (option int)) "idom exit" (Some head) (Df.Dom.idom dom exit_);
  Alcotest.(check bool) "back edge grants no dominance" false
    (Df.Dom.dominates dom body head)

let unreachable_fixture =
  [
    Asm.Label "entry";
    i (Isa.Mov_ri (Isa.rax, 1));
    Asm.Jmp_l "live";
    Asm.Label "dead";                        (* never targeted *)
    i (Isa.Mov_ri (Isa.rbx, 2));
    Asm.Label "live";
    i Isa.Ret;
  ]

let test_dom_unreachable () =
  let g, blk = graph_of unreachable_fixture in
  let dom = Df.Dom.compute g in
  let entry = blk "entry" and dead = blk "dead" and live = blk "live" in
  Alcotest.(check bool) "dead block is unreachable" false
    (Df.Graph.reachable g dead);
  Alcotest.(check bool) "live block is reachable" true
    (Df.Graph.reachable g live);
  Alcotest.(check bool) "nothing dominates an unreachable block" false
    (Df.Dom.dominates dom entry dead);
  Alcotest.(check bool) "an unreachable block dominates nothing else" false
    (Df.Dom.dominates dom dead live);
  Alcotest.(check bool) "except itself" true (Df.Dom.dominates dom dead dead)

(* --- fixtures: liveness --------------------------------------------- *)

let test_live_diamond () =
  let g, blk = graph_of diamond in
  let lv = Df.Live.solve g in
  (* rax is written in entry, read in join: live on both branch blocks *)
  let live_left = Df.Live.live_in lv (blk "left") in
  let live_right = Df.Live.live_in lv (blk "right") in
  Alcotest.(check bool) "rax live into left" true
    (Df.Live.is_live live_left Isa.rax);
  Alcotest.(check bool) "rax live into right" true
    (Df.Live.is_live live_right Isa.rax);
  (* rbx is written in left and never read *)
  Alcotest.(check bool) "rbx dead into left" false
    (Df.Live.is_live live_left Isa.rbx)

let test_live_loop () =
  let g, blk = graph_of loop in
  let lv = Df.Live.solve g in
  (* the loop counter survives the back edge *)
  Alcotest.(check bool) "rbx live around the loop" true
    (Df.Live.is_live (Df.Live.live_in lv (blk "head")) Isa.rbx);
  Alcotest.(check bool) "rbx live through the body" true
    (Df.Live.is_live (Df.Live.live_in lv (blk "body")) Isa.rbx);
  (* flags die at the conditional branch: nothing reads them in the body *)
  Alcotest.(check bool) "flags dead into body" false
    (Df.Live.flags_live (Df.Live.live_in lv (blk "body")))

let test_live_call_abi () =
  (* a call clobbers the caller-saved registers: values in them are not
     live across it, while callee-saved values are *)
  let g, blk =
    graph_of
      [
        Asm.Label "entry";
        i (Isa.Mov_ri (Isa.r10, 7));         (* caller-saved *)
        i (Isa.Mov_ri (Isa.rbx, 8));         (* callee-saved *)
        Asm.Call_l "fn";
        Asm.Label "after";
        i (Isa.Mov_rr (Isa.rax, Isa.r10));   (* reads r10 after the call *)
        i (Isa.Mov_rr (Isa.rdx, Isa.rbx));
        i Isa.Ret;
        Asm.Label "fn";
        i Isa.Ret;
      ]
  in
  let lv = Df.Live.solve g in
  let live_entry = Df.Live.live_in lv (blk "entry") in
  Alcotest.(check bool) "r10 not live across the call" false
    (Df.Live.is_live live_entry Isa.r10);
  ignore blk

(* --- clobber analysis at a call boundary ---------------------------- *)

let test_clobbers_call_boundary () =
  (* the scan hits a call with nothing read before it: the ABI says the
     caller-saved registers and flags are clobbered, so the trampoline
     needs no saves at all — the old analysis bailed conservative *)
  let bin =
    assemble_binary
      [
        i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.rbx));
        Asm.Call_l "fn";
        i Isa.Ret;
        Asm.Label "fn";
        i Isa.Ret;
      ]
  in
  let text = Binfmt.Relf.text_exn bin in
  let cfg = Dataflow.Graph.recover ~entry:text.addr text.bytes in
  let spec = Rewriter.Analysis.clobbers cfg ~start:0 ~limit:24 in
  Alcotest.(check int) "no saves needed before a call" 0 spec.nsaves;
  Alcotest.(check bool) "no flags save either" false spec.save_flags

(* --- operand canonicalization --------------------------------------- *)

let test_canon_operand () =
  let g, _ =
    graph_of
      [
        i (Isa.Mov_rr (Isa.r8, Isa.r12));
        i (Isa.Mov_ri (Isa.r9, 5));
        i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.r8 ~idx:Isa.r9 ~scale:8 (),
                      Isa.rbx));
        i Isa.Ret;
      ]
  in
  let m =
    Df.Canon.operand g 2 (Isa.mem ~base:Isa.r8 ~idx:Isa.r9 ~scale:8 ())
  in
  Alcotest.(check bool) "copy renamed to its source" true
    (m.Isa.base = Some Isa.r12);
  Alcotest.(check bool) "constant index folded away" true (m.Isa.idx = None);
  Alcotest.(check int) "into the displacement" 40 m.Isa.disp

(* --- the dense address index ----------------------------------------- *)

(* the structural invariants every graph keeps: [index_at] agrees with
   a reference table on every address of the span and one past either
   end, [is_leader] holds only at instruction starts, the blocks tile
   the stream in order with [block_of] matching their ranges, and the
   roots are sorted and duplicate-free *)
let index_ok (g : Df.Graph.t) =
  let instrs = Reference.triples (Df.Graph.stream g) in
  let reference = Hashtbl.create 64 in
  Array.iteri (fun i (a, _, _) -> Hashtbl.replace reference a i) instrs;
  let lo, hi =
    Array.fold_left
      (fun (lo, hi) (a, _, l) -> (min lo a, max hi (a + l)))
      (if instrs = [||] then (0, 0) else (max_int, min_int))
      instrs
  in
  let ok = ref true in
  for a = lo - 2 to hi + 2 do
    let want = Hashtbl.find_opt reference a in
    if Df.Graph.index_at g a <> want then ok := false;
    if want = None && Df.Graph.is_leader g a then ok := false
  done;
  !ok

let blocks_ok (g : Df.Graph.t) =
  let n = Df.Graph.num_instrs g in
  let next = ref 0 and ok = ref true in
  for b = 0 to Df.Graph.num_blocks g - 1 do
    let blk = Df.Graph.block g b in
    if blk.Df.Graph.first <> !next || blk.last < blk.first then ok := false;
    for i = blk.first to blk.last do
      if Df.Graph.block_of_instr g i <> b then ok := false
    done;
    next := blk.last + 1
  done;
  !ok && !next = n

let roots_ok (g : Df.Graph.t) =
  let r = Df.Graph.roots g in
  List.sort_uniq compare r = r

let graph_ok g = index_ok g && blocks_ok g && roots_ok g

(* hand-built streams: lengths are taken as given, so a gap between
   two instructions is just an address span no instruction covers *)
let test_dense_index_gap () =
  let instrs =
    [|
      (0x1000, Isa.Mov_ri (Isa.rax, 0x1010), 10);  (* code pointer *)
      (0x100a, Isa.Jcc (Isa.Eq, 0x1014), 2);  (* falls into the gap *)
      (0x1010, Isa.Nop 4, 4);
      (0x1014, Isa.Ret, 1);
    |]
  in
  let g = Df.Graph.of_instrs ~entry:0x1000 (Reference.stream_of_triples instrs) in
  Array.iteri
    (fun k (a, _, _) ->
      Alcotest.(check (option int)) "start maps to its index" (Some k)
        (Df.Graph.index_at g a))
    instrs;
  List.iter
    (fun a ->
      Alcotest.(check (option int)) (Printf.sprintf "%#x is no start" a) None
        (Df.Graph.index_at g a);
      Alcotest.(check bool) (Printf.sprintf "%#x is no leader" a) false
        (Df.Graph.is_leader g a))
    [ 0; 0xfff; 0x1001; 0x1009; 0x100b; 0x100c; 0x100f; 0x1011; 0x1015; 0x2000 ];
  List.iter
    (fun a ->
      Alcotest.(check bool) (Printf.sprintf "%#x leads" a) true
        (Df.Graph.is_leader g a))
    [ 0x1000; 0x1010; 0x1014 ];
  Alcotest.(check (list int)) "entry and code-pointer blocks are roots"
    [ 0; 1 ] (Df.Graph.roots g);
  Alcotest.(check bool) "graph invariants" true (graph_ok g)

let test_dense_index_single () =
  let g = Df.Graph.of_instrs ~entry:0x2000
      (Reference.stream_of_triples [| (0x2000, Isa.Ret, 1) |])
  in
  Alcotest.(check (option int)) "the instruction" (Some 0)
    (Df.Graph.index_at g 0x2000);
  Alcotest.(check (option int)) "before it" None (Df.Graph.index_at g 0x1fff);
  Alcotest.(check (option int)) "at its end" None (Df.Graph.index_at g 0x2001);
  Alcotest.(check (list int)) "one root" [ 0 ] (Df.Graph.roots g);
  Alcotest.(check bool) "graph invariants" true (graph_ok g)

let test_dense_index_empty () =
  let g = Df.Graph.of_instrs ~entry:0x3000 (Reference.stream_of_triples [||]) in
  Alcotest.(check int) "no blocks" 0 (Df.Graph.num_blocks g);
  Alcotest.(check (list int)) "no roots" [] (Df.Graph.roots g);
  List.iter
    (fun a ->
      Alcotest.(check (option int)) "nothing indexed" None
        (Df.Graph.index_at g a);
      Alcotest.(check bool) "nothing leads" false (Df.Graph.is_leader g a))
    [ 0; 0x2fff; 0x3000; 0x3001 ]

let prop_graph_invariants =
  QCheck.Test.make ~count:100 ~name:"graph: dense index and block tiling"
    Test_asm_properties.arb_program
    (fun accs ->
      let text =
        Binfmt.Relf.text_exn (Test_asm_properties.program_of accs)
      in
      graph_ok (Df.Graph.recover ~entry:text.addr text.bytes))

let test_graph_invariants_workloads () =
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let text = Binfmt.Relf.text_exn (Workloads.Spec.binary b) in
      Alcotest.(check bool) b.name true
        (graph_ok (Df.Graph.recover ~entry:text.addr text.bytes)))
    Workloads.Spec.all

(* --- the block walks ----------------------------------------------------- *)

(* [Canon.operand_at] and [Avail.available_at] walk each block once;
   they must answer exactly what the per-index replays [Canon.operand]
   and [Avail.available_before] answer, at every memory operand of the
   Chrome-scale binary and of the kernels.  The gen facts stand for a
   plan that checks every canonical operand with the variant each
   backend plans, so kills, covering and the backends' variants all
   come into play. *)
let test_block_walks_match_replay () =
  let fleet =
    ("chrome", Workloads.Chrome.binary ())
    :: List.map
         (fun (b : Workloads.Spec.bench) -> (b.name, Workloads.Spec.binary b))
         Workloads.Spec.all
  in
  List.iter
    (fun (name, bin) ->
      let text = Binfmt.Relf.text_exn bin in
      let g = Df.Graph.recover ~entry:text.addr text.bytes in
      let n = Df.Graph.num_instrs g in
      let canon = Df.Canon.cursor g in
      let ops = ref [] in
      Array.iteri
        (fun i ins ->
          match Isa.mem_operand ins with
          | None -> ()
          | Some (m, w, _) ->
            let c = Df.Canon.operand_at canon i m in
            if c <> Df.Canon.operand g i m then
              Alcotest.failf "%s: canonical operand of instruction %d" name i;
            ops := (i, c, Isa.width_bytes w) :: !ops)
        (Df.Graph.stream g).instrs;
      let ops = List.rev !ops in
      List.iter
        (fun backend ->
          let variant =
            Backend.Check_backend.plan backend ~profiling:false
              ~allowlisted:None
          in
          let gen = Array.make n [] in
          List.iter
            (fun (i, (m : Isa.mem), bytes) ->
              gen.(i) <-
                [ ( Df.Avail.key_of_mem m,
                    { Df.Avail.lo = m.disp; hi = m.disp + bytes; site = i;
                      variant } ) ])
            ops;
          let avail = Df.Avail.solve g ~gen in
          let walk = Df.Avail.cursor avail in
          List.iter
            (fun (i, _, _) ->
              if Df.Avail.available_at walk i <> Df.Avail.available_before avail i
              then
                Alcotest.failf "%s/%s: facts before instruction %d" name
                  (Backend.Check_backend.name backend) i)
            ops)
        Backend.Check_backend.all)
    fleet

(* --- monomorphic comparisons ------------------------------------------ *)

(* small domains, so equal keys and equal fact lists come up often *)
let gen_key =
  QCheck.Gen.(
    let reg = oneofl [ None; Some 0; Some 3; Some 15 ] in
    let* seg = int_range 0 1 in
    let* base = reg in
    let* idx = reg in
    let* scale = oneofl [ 1; 8 ] in
    return { Df.Avail.seg; base; idx; scale })

let gen_info =
  QCheck.Gen.(
    let* lo = int_range 0 1 in
    let* hi = int_range 1 2 in
    let* site = int_range 0 1 in
    let* variant = oneofl [ Isa.Full; Isa.Redzone; Isa.Temporal ] in
    return { Df.Avail.lo; hi; site; variant })

let gen_facts = QCheck.Gen.(list_size (int_range 0 4) (pair gen_key gen_info))

(* a fact and a second one: a structural copy, the copy with one info
   redrawn, or an independent draw *)
let gen_fact_pair =
  QCheck.Gen.(
    let fact =
      frequency
        [ (1, return Df.Avail.Top);
          (5, map (fun l -> Df.Avail.Facts l) gen_facts) ]
    in
    let* f = fact in
    let copy =
      match f with
      | Df.Avail.Top -> Df.Avail.Top
      | Facts l ->
        Facts
          (List.map
             (fun ((k : Df.Avail.key), (i : Df.Avail.info)) ->
               ({ k with seg = k.seg }, { i with lo = i.lo }))
             l)
    in
    let* g =
      frequency
        [ (2, return copy);
          ( 2,
            match copy with
            | Facts ((k, _) :: rest) ->
              map (fun i -> Df.Avail.Facts ((k, i) :: rest)) gen_info
            | _ -> fact );
          (1, fact) ]
    in
    return (f, g))

let sign c = compare c 0

let prop_compare_key =
  QCheck.Test.make ~count:2000 ~name:"avail: key compare is polymorphic compare"
    (QCheck.make QCheck.Gen.(pair gen_key gen_key))
    (fun (a, b) ->
      sign (Df.Avail.compare_key a b) = sign (compare a b)
      && Df.Avail.equal_key a b = (a = b))

let prop_equal_fact =
  QCheck.Test.make ~count:2000 ~name:"avail: fact equality is (=)"
    (QCheck.make gen_fact_pair)
    (fun (f, g) -> Df.Avail.equal_fact f g = (f = g))

let prop_fact_order =
  QCheck.Test.make ~count:500 ~name:"avail: facts sort as under compare"
    (QCheck.make gen_facts)
    (fun l ->
      let by cmp = List.stable_sort (fun (a, _) (b, _) -> cmp a b) l in
      by Df.Avail.compare_key = by compare)

(* --- elimination table ---------------------------------------------- *)

let test_elimtab_roundtrip () =
  let t =
    {
      Df.Elimtab.backend = Df.Elimtab.default_backend;
      reads = true;
      writes = false;
      entries =
        [ (0x400010, Df.Elimtab.Clear); (0x400020, Df.Elimtab.Dom 0x400008) ];
    }
  in
  Alcotest.(check bool) "round-trips" true
    (t = Df.Elimtab.parse (Df.Elimtab.render t));
  (* a non-default backend survives the round-trip via its policy token *)
  let t2 = { t with Df.Elimtab.backend = "temporal" } in
  Alcotest.(check bool) "backend token round-trips" true
    (t2 = Df.Elimtab.parse (Df.Elimtab.render t2))

(* --- options cache keys --------------------------------------------- *)

let test_options_key_distinct () =
  let base = Rw.optimized in
  let variants =
    [
      Rw.unoptimized;
      Rw.with_elim;
      Rw.with_batch;
      base;
      { base with Rw.global_elim = false };
      { base with Rw.merge = false };
      { base with Rw.scratch_opt = false };
      { base with Rw.instrument_reads = false };
      { base with Rw.instrument_writes = false };
      { base with Rw.allowlist = Some [] };
      { base with Rw.allowlist = Some [ 0x400000 ] };
      Rw.profiling_build;
    ]
  in
  let keys = List.map Rw.options_key variants in
  Alcotest.(check int) "pairwise distinct cache keys"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* --- global elimination: effect and behaviour preservation ----------- *)

let spec_subset = [ "bzip2"; "omnetpp"; "GemsFDTD" ]

let test_global_elim_reduces_checks () =
  (* the acceptance bar: on the optimized Table 1 configuration,
     global elimination strictly reduces emitted checks somewhere *)
  let strictly_reduced =
    List.exists
      (fun name ->
        let bin = Workloads.Spec.binary (Workloads.Spec.find name) in
        let off =
          (Rw.rewrite { Rw.optimized with Rw.global_elim = false } bin).stats
        in
        let on = (Rw.rewrite Rw.optimized bin).stats in
        on.Rw.eliminated_global > 0
        && on.Rw.checks_emitted < off.Rw.checks_emitted)
      spec_subset
  in
  Alcotest.(check bool) "strictly fewer checks on some workload" true
    strictly_reduced

let run_outcome bin opts inputs =
  let hard = Rw.rewrite opts bin in
  let hr = Redfat.run ~inputs hard.Rw.binary libredfat in
  let verdict =
    match hr.Redfat.verdict with
    | Redfat.Finished c -> Printf.sprintf "finished:%d" c
    | Redfat.Detected e -> "detected:" ^ Redfat_rt.Runtime.kind_name e.kind
    | Redfat.Fault m -> "fault:" ^ m
  in
  (verdict, hr.Redfat.run.Redfat.outputs, hr.Redfat.run.Redfat.exit_code)

let check_behaviour_preserved name bin inputs =
  let off = run_outcome bin { Rw.optimized with Rw.global_elim = false } inputs
  and on = run_outcome bin Rw.optimized inputs in
  Alcotest.(check (triple string (list int) int))
    (name ^ ": same verdict, outputs, exit code")
    off on

let test_global_elim_preserves_behaviour () =
  List.iter
    (fun name ->
      let b = Workloads.Spec.find name in
      let bin = Workloads.Spec.binary b in
      check_behaviour_preserved ("spec:" ^ name) bin
        (Workloads.Spec.ref_inputs b))
    spec_subset

let test_global_elim_preserves_verdicts () =
  (* detection verdicts on attack inputs are not weakened *)
  List.iteri
    (fun k (c : Workloads.Juliet.case) ->
      if k mod 7 = 0 then begin
        let bin = Workloads.Juliet.binary c in
        check_behaviour_preserved
          ("juliet:" ^ c.Workloads.Juliet.id ^ ":benign")
          bin c.Workloads.Juliet.benign_inputs;
        check_behaviour_preserved
          ("juliet:" ^ c.Workloads.Juliet.id ^ ":attack")
          bin c.Workloads.Juliet.attack_inputs
      end)
    Workloads.Juliet.all

(* --- the soundness linter ------------------------------------------- *)

let test_verify_workloads_ok () =
  List.iter
    (fun name ->
      let bin = Workloads.Spec.binary (Workloads.Spec.find name) in
      let hard = Rw.rewrite Rw.optimized bin in
      match Rw.verify hard.Rw.binary with
      | Error e -> Alcotest.failf "%s: verify error: %s" name e
      | Ok r ->
        Alcotest.(check bool) (name ^ ": zero unaccounted accesses") true
          (Df.Verify.ok r))
    spec_subset

(* every preset under every backend and read policy, over Chrome x1
   and the 29 kernels (the profiling build too: it names each backend
   but is built, and recorded, as a default-backend build).  Chrome's
   clones sit in blocks no graph root reaches, and presets that batch
   without merging emit several checks on one key, of which the
   availability facts keep one: both need the linter's same-block
   fallback *)
let test_verify_presets_clean () =
  let builds =
    List.concat_map
      (fun (pname, preset) ->
        List.map
          (fun backend ->
            ( pname ^ "/" ^ Backend.Check_backend.name backend,
              { preset with Rw.backend } ))
          Backend.Check_backend.all)
      [ ("unoptimized", Rw.unoptimized); ("with_elim", Rw.with_elim);
        ("with_batch", Rw.with_batch); ("optimized", Rw.optimized);
        ("with_hoist", Rw.with_hoist); ("profiling_build", Rw.profiling_build) ]
  in
  let bins =
    ("chrome:1", Workloads.Chrome.binary ~copies:1 ())
    :: List.map
         (fun (b : Workloads.Spec.bench) ->
           ("spec:" ^ b.name, Workloads.Spec.binary b))
         Workloads.Spec.all
  in
  let bad = ref [] in
  List.iter
    (fun (name, bin) ->
      List.iter
        (fun (bname, opts) ->
          List.iter
            (fun instrument_reads ->
              let what =
                Printf.sprintf "%s %s reads=%b" name bname instrument_reads
              in
              let hard = Rw.rewrite { opts with instrument_reads } bin in
              match Rw.verify hard.Rw.binary with
              | Ok r when Df.Verify.ok r -> ()
              | Ok r ->
                bad :=
                  Printf.sprintf "%s: %d unaccounted" what
                    (List.length r.Df.Verify.failures)
                  :: !bad
              | Error e -> bad := (what ^ ": " ^ e) :: !bad)
            [ true; false ])
        builds)
    bins;
  Alcotest.(check (list string)) "every build verifies" [] (List.rev !bad)

(* a batch in a block no root reaches: the member after the patched
   span is covered by its unit's check, until its base register is
   redefined in between *)
let test_verify_same_block_kill () =
  let items =
    [
      i Isa.Ret;
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.r9 (), Isa.r10));
      i (Isa.Mov_ri (Isa.r11, 1));
      i (Isa.Mov_ri (Isa.r11, 2));
      i (Isa.Alu_ri (Isa.Add, Isa.r11, 3));
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.r9 (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let hard = Rw.rewrite Rw.with_batch (assemble_binary items) in
  let verifies bin =
    match Rw.verify bin with Ok r -> Df.Verify.ok r | Error _ -> false
  in
  Alcotest.(check bool) "batched unreachable block verifies" true
    (verifies hard.Rw.binary);
  (* overwrite the last filler with a same-length redefinition of the
     base (an add, which operand canonicalization cannot fold away):
     the second store is no longer covered *)
  let text = Binfmt.Relf.text_exn hard.Rw.binary in
  let filler, kill =
    match
      List.filter
        (fun (_, ins, _) ->
          match ins with Isa.Alu_ri (Isa.Add, r, 3) -> r = Isa.r11 | _ -> false)
        (Reference.sweep_list ~addr:text.addr text.bytes)
    with
    | [ (a, _, _) ] ->
      (a, Encode.encode_seq ~addr:a [ Isa.Alu_ri (Isa.Add, Isa.r9, 3) ])
    | _ -> Alcotest.fail "filler not found in the hardened text"
  in
  let bytes = Bytes.of_string text.bytes in
  Bytes.blit_string kill 0 bytes (filler - text.addr) (String.length kill);
  let tampered =
    {
      hard.Rw.binary with
      Binfmt.Relf.sections =
        List.map
          (fun (s : Binfmt.Relf.section) ->
            if s.name = ".text" then
              { s with Binfmt.Relf.bytes = Bytes.to_string bytes }
            else s)
          hard.Rw.binary.Binfmt.Relf.sections;
    }
  in
  Alcotest.(check bool) "a kill in between fails the lint" false
    (verifies tampered)

(* the dynamic side of the fallback: [f] runs, but only through a
   pointer computed at run time ([&g] plus an input), so no code-pointer
   constant names it and no graph root reaches its batch.  Each batch
   member's check must run, and an out-of-bounds index planted at each
   member must be detected at that member *)
let test_verify_unreachable_batch_runs () =
  let open Minic.Build in
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"g" ~params:[ "a"; "j" ] [ return_ (i 0) ];
        Minic.Ast.func ~name:"f" ~params:[ "a"; "j" ]
          [ setk (v "a") (v "j") 0 (i 1); setk (v "a") (v "j") 1 (i 2);
            setk (v "a") (v "j") 2 (i 3); return_ (i 0) ];
        Minic.Ast.func ~name:"main"
          [ let_ "a" (alloc_elems (i 8));
            let_ "p" (addr_of "g" +: Minic.Ast.Input);
            expr (call_ptr (v "p") [ v "a"; Minic.Ast.Input ]);
            return_ (i 0) ];
      ]
  in
  let bin, syms = Minic.Codegen.compile_with_symbols prog in
  let f = List.assoc "fn_f" syms in
  let delta = f - List.assoc "fn_g" syms in
  let text = Binfmt.Relf.text_exn bin in
  let stream = Disasm.sweep_stream ~addr:text.addr text.bytes in
  let instrs = Reference.triples stream in
  let g = Df.Graph.of_instrs ~entry:bin.Binfmt.Relf.entry stream in
  let block_at a =
    Df.Graph.block_of_instr g (Option.get (Df.Graph.index_at g a))
  in
  let members =
    Array.to_list instrs
    |> List.filter_map (fun (a, ins, _) ->
           if a > f && Isa.mem_operand ins <> None then Some a else None)
  in
  Alcotest.(check int) "three batch members" 3 (List.length members);
  List.iter
    (fun a ->
      Alcotest.(check bool) "member unreachable from every root" false
        (Df.Graph.reachable g (block_at a)))
    members;
  List.iter
    (fun (pname, opts) ->
      let hard = (Rw.rewrite opts bin).Rw.binary in
      (match Rw.verify hard with
      | Ok r ->
        Alcotest.(check bool) (pname ^ " verifies") true (Df.Verify.ok r)
      | Error e -> Alcotest.fail e);
      let acct = Vm.Cpu.new_acct () in
      let run j = Redfat.run ~acct ~inputs:[ delta; j ] hard libredfat in
      (match (run 0).verdict with
      | Redfat.Finished 0 -> ()
      | v -> Alcotest.failf "%s benign: %s" pname (Redfat.verdict_to_string v));
      let checked = List.map (fun (s, _, _) -> s) (Vm.Cpu.acct_sites acct) in
      (* a merged check is accounted to the first member only *)
      let expect = if opts.Rw.merge then [ List.hd members ] else members in
      Alcotest.(check (list int)) (pname ^ " member checks ran") expect checked;
      (* index 8 - k puts member k just past the 8-element array *)
      List.iteri
        (fun k a ->
          match (run (8 - k)).verdict with
          | Redfat.Detected e ->
            Alcotest.(check int)
              (Printf.sprintf "%s member %d detected at its site" pname k)
              (if opts.Rw.merge then List.hd members else a)
              e.Redfat_rt.Runtime.site
          | v ->
            Alcotest.failf "%s member %d: %s" pname k
              (Redfat.verdict_to_string v))
        members)
    [ ("unoptimized", Rw.unoptimized); ("with_batch", Rw.with_batch);
      ("optimized", Rw.optimized) ]

let heap_fixture =
  (* one heap access, one eliminated rsp access *)
  [
    i (Isa.Mov_ri (Isa.rdi, 64));
    i (Isa.Callrt Isa.Malloc);
    i (Isa.Mov_ri (Isa.r10, 1));
    i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
    i (Isa.Store (Isa.W8, Isa.mem ~disp:16 ~base:Isa.rsp (), Isa.r10));
    i Isa.Ret;
  ]

let test_verify_detects_tampering () =
  let hard = Rw.rewrite Rw.optimized (assemble_binary heap_fixture) in
  (match Rw.verify hard.Rw.binary with
  | Ok r -> Alcotest.(check bool) "pristine binary verifies" true
      (Df.Verify.ok r)
  | Error e -> Alcotest.fail e);
  (* drop the elimination table's entries: the rsp store loses its
     recorded justification and must surface as unaccounted *)
  let tampered =
    {
      hard.Rw.binary with
      Binfmt.Relf.sections =
        List.map
          (fun (s : Binfmt.Relf.section) ->
            if s.name = Df.Elimtab.section_name then
              { s with bytes = "!policy reads=1 writes=1\n" }
            else s)
          hard.Rw.binary.Binfmt.Relf.sections;
    }
  in
  match Rw.verify tampered with
  | Ok r ->
    Alcotest.(check bool) "tampered elimtab fails the lint" false
      (Df.Verify.ok r)
  | Error e -> Alcotest.fail e

let test_verify_rejects_unhardened_text_edit () =
  let hard = Rw.rewrite Rw.optimized (assemble_binary heap_fixture) in
  (* append an unpatched heap store to the text: a memory access no
     trampoline, table or rule accounts for *)
  let tampered =
    {
      hard.Rw.binary with
      Binfmt.Relf.sections =
        List.map
          (fun (s : Binfmt.Relf.section) ->
            if s.name = ".text" then
              let rogue =
                X64.Encode.encode_seq ~addr:(s.addr + String.length s.bytes)
                  [ Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10);
                    Isa.Ret ]
              in
              { s with Binfmt.Relf.bytes = s.bytes ^ rogue }
            else s)
          hard.Rw.binary.Binfmt.Relf.sections;
    }
  in
  match Rw.verify tampered with
  | Ok r ->
    Alcotest.(check bool) "rogue access fails the lint" false
      (Df.Verify.ok r)
  | Error _ -> ()   (* structural rejection is also a failure verdict *)

let tests =
  [
    Alcotest.test_case "dominators: diamond" `Quick test_dom_diamond;
    Alcotest.test_case "dominators: loop" `Quick test_dom_loop;
    Alcotest.test_case "dominators: unreachable block" `Quick
      test_dom_unreachable;
    Alcotest.test_case "liveness: diamond" `Quick test_live_diamond;
    Alcotest.test_case "liveness: loop" `Quick test_live_loop;
    Alcotest.test_case "liveness: call ABI summary" `Quick test_live_call_abi;
    Alcotest.test_case "clobbers at a call boundary" `Quick
      test_clobbers_call_boundary;
    Alcotest.test_case "operand canonicalization" `Quick test_canon_operand;
    Alcotest.test_case "block walks = per-index replays (Chrome, SPEC)" `Quick
      test_block_walks_match_replay;
    Alcotest.test_case "dense index: stream with a gap" `Quick
      test_dense_index_gap;
    Alcotest.test_case "dense index: one instruction" `Quick
      test_dense_index_single;
    Alcotest.test_case "dense index: empty stream" `Quick
      test_dense_index_empty;
    Alcotest.test_case "dense index: SPEC kernels" `Quick
      test_graph_invariants_workloads;
    QCheck_alcotest.to_alcotest prop_graph_invariants;
    QCheck_alcotest.to_alcotest prop_compare_key;
    QCheck_alcotest.to_alcotest prop_equal_fact;
    QCheck_alcotest.to_alcotest prop_fact_order;
    Alcotest.test_case "elimtab round-trip" `Quick test_elimtab_roundtrip;
    Alcotest.test_case "options_key pairwise distinct" `Quick
      test_options_key_distinct;
    Alcotest.test_case "global elim strictly reduces checks" `Quick
      test_global_elim_reduces_checks;
    Alcotest.test_case "global elim preserves behaviour (SPEC)" `Quick
      test_global_elim_preserves_behaviour;
    Alcotest.test_case "global elim preserves verdicts (Juliet)" `Quick
      test_global_elim_preserves_verdicts;
    Alcotest.test_case "verify: workloads lint clean" `Quick
      test_verify_workloads_ok;
    Alcotest.test_case "verify: every preset, backend and policy" `Quick
      test_verify_presets_clean;
    Alcotest.test_case "verify: same-block cover stops at a kill" `Quick
      test_verify_same_block_kill;
    Alcotest.test_case "verify: unreachable batch runs and detects" `Quick
      test_verify_unreachable_batch_runs;
    Alcotest.test_case "verify: tampered elimtab fails" `Quick
      test_verify_detects_tampering;
    Alcotest.test_case "verify: rogue text access fails" `Quick
      test_verify_rejects_unhardened_text_edit;
  ]
