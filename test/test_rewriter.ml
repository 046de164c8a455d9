(* The static rewriter: CFG recovery, analyses, batching, merging,
   patch tactics, semantic preservation. *)

open X64
module Rw = Rewriter.Rewrite

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let i x = Asm.I x

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

(* --- CFG recovery ---------------------------------------------------- *)

let test_cfg_leaders () =
  let bin =
    assemble_binary
      [
        i (Isa.Mov_ri (Isa.rax, 1));        (* entry: leader *)
        Asm.Jcc_l (Isa.Eq, "target");
        i (Isa.Nop 1);                       (* fall-through: leader *)
        Asm.Label "target";
        i (Isa.Alu_ri (Isa.Add, Isa.rax, 1)); (* jump target: leader *)
        Asm.Call_l "fn";
        i (Isa.Nop 1);                       (* after call: leader *)
        i Isa.Ret;
        Asm.Label "fn";
        i Isa.Ret;                           (* after ret: leader *)
      ]
  in
  let text = Binfmt.Relf.text_exn bin in
  let cfg = Dataflow.Graph.recover ~entry:text.addr text.bytes in
  let leaders =
    Array.to_list (Dataflow.Graph.stream cfg).addrs
    |> List.filter (fun a -> Dataflow.Graph.is_leader cfg a)
    |> List.length
  in
  Alcotest.(check int) "leader count" 5 leaders

(* --- analyses -------------------------------------------------------- *)

let test_eliminable () =
  let e m = Rewriter.Analysis.eliminable m ~len:8 in
  Alcotest.(check bool) "rsp-based" true (e (Isa.mem ~disp:16 ~base:Isa.rsp ()));
  Alcotest.(check bool) "absolute global" true
    (e (Isa.mem ~disp:Lowfat.Layout.data_base ()));
  Alcotest.(check bool) "paper's 0x601000" true (e (Isa.mem ~disp:0x601000 ()));
  Alcotest.(check bool) "plain register base" false
    (e (Isa.mem ~base:Isa.rax ()));
  Alcotest.(check bool) "indexed rsp NOT eliminable" false
    (e (Isa.mem ~base:Isa.rsp ~idx:Isa.rcx ()))

let clobber_spec items =
  let bin = assemble_binary items in
  let text = Binfmt.Relf.text_exn bin in
  let cfg = Dataflow.Graph.recover ~entry:text.addr text.bytes in
  Rewriter.Analysis.clobbers cfg ~start:0 ~limit:16

let test_clobbers_dead_registers () =
  (* rcx, rdx, rsi are overwritten before any read: 3 scratch available *)
  let spec =
    clobber_spec
      [
        i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.rbx));
        i (Isa.Mov_ri (Isa.rcx, 0));
        i (Isa.Mov_ri (Isa.rdx, 0));
        i (Isa.Mov_ri (Isa.rsi, 0));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "no saves needed" 0 spec.nsaves

let test_clobbers_live_registers () =
  (* everything is read before written: conservative saves *)
  let spec =
    clobber_spec
      [
        i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.rbx));
        i (Isa.Push Isa.rcx);
        i (Isa.Push Isa.rdx);
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "saves needed" 3 spec.nsaves

let test_clobbers_flags () =
  let dead =
    clobber_spec
      [
        i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.rbx));
        i (Isa.Cmp_ri (Isa.rax, 0)); (* writes flags before any read *)
        i Isa.Ret;
      ]
  in
  Alcotest.(check bool) "flags dead" false dead.save_flags;
  let live =
    clobber_spec
      [
        i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.rbx));
        i (Isa.Jcc (Isa.Eq, Lowfat.Layout.code_base)); (* reads flags *)
        i Isa.Ret;
      ]
  in
  Alcotest.(check bool) "flags live" true live.save_flags

(* --- batching and merging -------------------------------------------- *)

let store_seq =
  (* Example-2-like block over one object in rax *)
  [
    i (Isa.Mov_ri (Isa.rdi, 64));
    i (Isa.Callrt Isa.Malloc);
    i (Isa.Mov_ri (Isa.r10, 1));
    i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
    i (Isa.Store_i (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rax (), 2));
    i (Isa.Store_i (Isa.W8, Isa.mem ~disp:16 ~base:Isa.rax (), 3));
    i Isa.Ret;
  ]

let stats opts items = (Rw.rewrite opts (assemble_binary items)).stats

let test_batching_groups_block () =
  let s = stats Rw.with_batch store_seq in
  Alcotest.(check int) "one trampoline for the run" 1 s.trampolines;
  Alcotest.(check int) "three checks" 3 s.checks_emitted

let test_merging_same_operand () =
  let s = stats Rw.optimized store_seq in
  Alcotest.(check int) "merged into one check" 1 s.checks_emitted

let test_merge_respects_operand_key () =
  (* base registers holding provably different values cannot merge *)
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_rr (Isa.rbx, Isa.rax));
      i (Isa.Alu_ri (Isa.Add, Isa.rbx, 32));
      i (Isa.Mov_ri (Isa.r10, 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rbx (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "two checks" 2 s.checks_emitted;
  Alcotest.(check int) "one trampoline" 1 s.trampolines

let test_merge_through_copies () =
  (* a register copy holds the same value, so accesses through the copy
     merge with accesses through the original (operand canonicalization) *)
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_rr (Isa.rbx, Isa.rax));
      i (Isa.Mov_ri (Isa.r10, 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rbx (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "one merged check" 1 s.checks_emitted;
  Alcotest.(check int) "one trampoline" 1 s.trampolines

let test_batch_broken_by_redefinition () =
  (* the base register is redefined between the stores *)
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_ri (Isa.r10, 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      i (Isa.Alu_ri (Isa.Add, Isa.rax, 8)); (* redefines rax *)
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "two trampolines" 2 s.trampolines

let test_batch_broken_by_branch () =
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_ri (Isa.r10, 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      Asm.Jcc_l (Isa.Eq, "skip");
      Asm.Label "skip";
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rax (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "branch breaks the batch" 2 s.trampolines

let test_batch_broken_by_rtcall () =
  (* a free() between accesses must not let the second check run early *)
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_ri (Isa.r10, 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rax (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "runtime call breaks the batch" 2 s.trampolines

(* --- elimination ----------------------------------------------------- *)

let test_elimination_counts () =
  let items =
    [
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rsp (), Isa.rax));
      i (Isa.Store_i (Isa.W8, Isa.mem ~disp:Lowfat.Layout.data_base (), 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.rax));
      i Isa.Ret;
    ]
  in
  let off = stats Rw.unoptimized items in
  Alcotest.(check int) "no elimination" 3 off.instrumented;
  let on = stats Rw.with_elim items in
  Alcotest.(check int) "two eliminated" 2 on.eliminated;
  Alcotest.(check int) "one instrumented" 1 on.instrumented

let test_reads_writes_filter () =
  let items =
    [
      i (Isa.Load (Isa.W8, Isa.rcx, Isa.mem ~base:Isa.rbx ()));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.rcx));
      i Isa.Ret;
    ]
  in
  let wo = stats { Rw.optimized with instrument_reads = false } items in
  Alcotest.(check int) "writes only" 1 wo.instrumented;
  let ro = stats { Rw.optimized with instrument_writes = false } items in
  Alcotest.(check int) "reads only" 1 ro.instrumented

(* --- patch tactics --------------------------------------------------- *)

let test_jump_tactic_on_long_instruction () =
  (* disp32 store is 8 bytes >= 5: plain jump patch, no eviction *)
  let items =
    [
      i (Isa.Store (Isa.W8, Isa.mem ~disp:0x1000 ~base:Isa.rbx (), Isa.rax));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "jump patch" 1 s.jump_patches;
  Alcotest.(check int) "no eviction" 0 s.evictions;
  Alcotest.(check int) "no traps" 0 s.trap_patches

let test_eviction_tactic_on_short_instruction () =
  (* 4-byte store followed by plain instructions: eviction *)
  let items =
    [
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.rax));
      i (Isa.Mov_rr (Isa.rcx, Isa.rdx));
      i (Isa.Mov_rr (Isa.rsi, Isa.rdi));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "jump patch via eviction" 1 s.jump_patches;
  Alcotest.(check bool) "evicted successors" true (s.evictions >= 1);
  Alcotest.(check int) "no traps" 0 s.trap_patches

let test_trap_tactic_when_blocked () =
  (* a 4-byte store immediately before a jump target: eviction illegal,
     must fall back to the 1-byte trap patch *)
  let items =
    [
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.rax));
      Asm.Label "target";
      i (Isa.Mov_rr (Isa.rcx, Isa.rdx));
      Asm.Jmp_l "target2";
      Asm.Label "target2";
      i Isa.Ret;
    ]
  in
  (* make "target" an actual jump target so it becomes a leader *)
  let items = items @ [ Asm.Label "unused"; Asm.Jmp_l "target" ] in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "trap patch used" 1 s.trap_patches;
  Alcotest.(check (list (pair int int))) "trap table entry"
    [ (Lowfat.Layout.code_base, Lowfat.Layout.trampoline_base) ]
    (Rw.rewrite Rw.optimized (assemble_binary items)).traps

let test_traps_roundtrip_through_binary () =
  let items =
    [
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.rax));
      Asm.Label "t";
      i Isa.Ret;
      Asm.Jmp_l "t";
    ]
  in
  let r = Rw.rewrite Rw.optimized (assemble_binary items) in
  Alcotest.(check (list (pair int int))) "traptab section round-trip" r.traps
    (Rewriter.Patch.traps_of_binary r.binary);
  (* the one parser is strict: a malformed line is a typed [parse.*]
     fault naming the section, not a silently dropped entry; only the
     empty line after the final newline is accepted *)
  List.iter
    (fun (bad, code) ->
      match Rewriter.Patch.parse_traps bad with
      | traps ->
        Alcotest.failf "accepted %S as %d entries" bad (List.length traps)
      | exception (Binfmt.Reader.Error err as e) ->
        let msg = Binfmt.Reader.message err in
        Alcotest.(check bool) ("message: " ^ msg) true
          (String.starts_with ~prefix:".traptab:" msg);
        Alcotest.(check string) "fault code" code
          Engine.Fault.(code (of_exn e)))
    [
      ("400000 4040000g\n", "parse.int");          (* non-hex field *)
      ("400000\n", "parse.section");               (* a single field *)
      ("400000 40400000 1\n", "parse.section");    (* a third field *)
      ("400000 4000000000000000\n", "parse.int");  (* overflows an int *)
      ("400000 40400000\n\n", "parse.section");    (* an empty line *)
    ];
  Alcotest.(check bool) "is_hardened" true (Rw.is_hardened r.binary);
  Alcotest.(check bool) "original not hardened" false
    (Rw.is_hardened (assemble_binary items))

(* --- indirect control flow ------------------------------------------- *)

let test_code_pointer_constants_are_leaders () =
  (* a taken function address must become a leader so its entry is
     never displaced into a trampoline *)
  let items =
    [
      Asm.Mov_label (Isa.rbx, "taken");
      i (Isa.Call_ind Isa.rbx);
      i Isa.Ret;
      Asm.Label "taken";
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rcx (), Isa.rax));
      i Isa.Ret;
    ]
  in
  let bin = assemble_binary items in
  let text = Binfmt.Relf.text_exn bin in
  let cfg = Dataflow.Graph.recover ~entry:text.addr text.bytes in
  (* find the address of the "taken" store *)
  let _, labels = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  Alcotest.(check bool) "taken entry is a leader" true
    (Dataflow.Graph.is_leader cfg (Hashtbl.find labels "taken"))

let test_indirect_call_breaks_batch () =
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_ri (Isa.r10, 1));
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
      i (Isa.Call_ind Isa.r12);
      i (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rax (), Isa.r10));
      i Isa.Ret;
    ]
  in
  let s = stats Rw.optimized items in
  Alcotest.(check int) "two trampolines" 2 s.trampolines

let test_hardened_function_pointers_preserved () =
  let open Minic.Build in
  let prog =
    Minic.Ast.program
      (Minic.Ast.func ~name:"main" [ print_ (call "vm" [ i 30 ]) ]
      :: Workloads.Kernels.interp_funcs "vm")
  in
  let bin = Minic.Codegen.compile prog in
  let base = (Redfat.run bin Baseline).run in
  List.iter
    (fun opts ->
      let hard = Redfat.harden ~opts bin in
      let hr = Redfat.run hard.binary libredfat in
      match hr.verdict with
      | Redfat.Finished 0 ->
        Alcotest.(check (list int)) "outputs equal" base.outputs
          hr.run.outputs
      | v -> Alcotest.failf "hardened: %s" (Redfat.verdict_to_string v))
    [ Rw.unoptimized; Rw.optimized ]

(* --- allow-list variants --------------------------------------------- *)

let test_allowlist_splits_variants () =
  let items = store_seq in
  let bin = assemble_binary items in
  let text = Binfmt.Relf.text_exn bin in
  let sites =
    List.filter_map
      (fun (a, instr, _) ->
        match Isa.mem_operand instr with Some _ -> Some a | None -> None)
      (Reference.sweep_list ~addr:text.addr text.bytes)
  in
  (match sites with
   | first :: _ ->
     let r = Rw.rewrite (Rw.production ~allowlist:[ first ]) bin in
     Alcotest.(check int) "one full site" 1 r.stats.full_sites;
     Alcotest.(check int) "rest redzone" 2 r.stats.redzone_sites
   | [] -> Alcotest.fail "no sites found")

(* --- semantic preservation on instrumented binaries ------------------ *)

let run_hardened_outputs ?(opts = Rw.optimized) items inputs =
  let bin = assemble_binary items in
  let { Redfat.run = base; verdict = bv; _ } =
    Redfat.run ~inputs bin Baseline
  in
  (match bv with
   | Redfat.Finished _ -> ()
   | v -> Alcotest.failf "baseline: %s" (Redfat.verdict_to_string v));
  let hard = Redfat.harden ~opts bin in
  let hr = Redfat.run ~inputs hard.binary libredfat in
  (match hr.verdict with
   | Redfat.Finished _ -> ()
   | v -> Alcotest.failf "hardened: %s" (Redfat.verdict_to_string v));
  (base.outputs, hr.run.outputs)

let test_trap_patch_preserves_semantics () =
  (* program whose instrumentation needs the trap tactic *)
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_rr (Isa.rbx, Isa.rax));
      i (Isa.Mov_ri (Isa.r10, 77));
      (* 4-byte store immediately before a jump target: trap tactic *)
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.r10));
      Asm.Label "t";
      i (Isa.Load (Isa.W8, Isa.rdi, Isa.mem ~base:Isa.rbx ()));
      i (Isa.Callrt Isa.Print);
      i Isa.Ret;
      Asm.Jmp_l "t"; (* dead code, but makes "t" a leader *)
    ]
  in
  (* guard: this layout must actually exercise the trap tactic *)
  let bin = assemble_binary items in
  let r = Rw.rewrite Rw.optimized bin in
  Alcotest.(check bool) "uses a trap patch" true (r.stats.trap_patches >= 1);
  let hr = Redfat.run r.binary libredfat in
  match hr.verdict with
  | Redfat.Finished _ ->
    Alcotest.(check (list int)) "output preserved" [ 77 ] hr.run.outputs
  | v -> Alcotest.failf "hardened: %s" (Redfat.verdict_to_string v)

let test_preservation_all_levels () =
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 128));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_rr (Isa.rbx, Isa.rax));
      i (Isa.Mov_ri (Isa.rcx, 0));
      Asm.Label "loop";
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx ~idx:Isa.rcx ~scale:8 (), Isa.rcx));
      i (Isa.Alu_ri (Isa.Add, Isa.rcx, 1));
      i (Isa.Cmp_ri (Isa.rcx, 16));
      Asm.Jcc_l (Isa.Lt, "loop");
      i (Isa.Load (Isa.W8, Isa.rdi, Isa.mem ~disp:120 ~base:Isa.rbx ()));
      i (Isa.Callrt Isa.Print);
      i Isa.Ret;
    ]
  in
  List.iter
    (fun opts ->
      let base, hard = run_hardened_outputs ~opts items [] in
      Alcotest.(check (list int)) "outputs equal" base hard)
    [ Rw.unoptimized; Rw.with_elim; Rw.with_batch; Rw.optimized ]

let test_stats_accounting () =
  let r = Rw.rewrite Rw.optimized (assemble_binary store_seq) in
  let s = r.stats in
  Alcotest.(check int) "mem ops" 3 s.mem_ops;
  Alcotest.(check int) "sites = full + redzone" s.instrumented
    (s.full_sites + s.redzone_sites);
  Alcotest.(check int) "patches = trampolines" s.trampolines
    (s.jump_patches + s.trap_patches);
  Alcotest.(check bool) "trampoline bytes recorded" true (s.tramp_bytes > 0)

let tests =
  [
    Alcotest.test_case "cfg leaders" `Quick test_cfg_leaders;
    Alcotest.test_case "eliminable operands" `Quick test_eliminable;
    Alcotest.test_case "clobbers: dead registers" `Quick
      test_clobbers_dead_registers;
    Alcotest.test_case "clobbers: live registers" `Quick
      test_clobbers_live_registers;
    Alcotest.test_case "clobbers: flags" `Quick test_clobbers_flags;
    Alcotest.test_case "batching groups a block" `Quick
      test_batching_groups_block;
    Alcotest.test_case "merging same operand" `Quick test_merging_same_operand;
    Alcotest.test_case "merge respects operand key" `Quick
      test_merge_respects_operand_key;
    Alcotest.test_case "merge through copies" `Quick test_merge_through_copies;
    Alcotest.test_case "batch broken by redefinition" `Quick
      test_batch_broken_by_redefinition;
    Alcotest.test_case "batch broken by branch" `Quick
      test_batch_broken_by_branch;
    Alcotest.test_case "batch broken by runtime call" `Quick
      test_batch_broken_by_rtcall;
    Alcotest.test_case "elimination counts" `Quick test_elimination_counts;
    Alcotest.test_case "read/write filters" `Quick test_reads_writes_filter;
    Alcotest.test_case "jump tactic" `Quick test_jump_tactic_on_long_instruction;
    Alcotest.test_case "eviction tactic" `Quick
      test_eviction_tactic_on_short_instruction;
    Alcotest.test_case "trap tactic when blocked" `Quick
      test_trap_tactic_when_blocked;
    Alcotest.test_case "traps round-trip" `Quick
      test_traps_roundtrip_through_binary;
    Alcotest.test_case "code-pointer constants are leaders" `Quick
      test_code_pointer_constants_are_leaders;
    Alcotest.test_case "indirect call breaks batch" `Quick
      test_indirect_call_breaks_batch;
    Alcotest.test_case "hardened function pointers preserved" `Quick
      test_hardened_function_pointers_preserved;
    Alcotest.test_case "allowlist splits variants" `Quick
      test_allowlist_splits_variants;
    Alcotest.test_case "trap patch preserves semantics" `Quick
      test_trap_patch_preserves_semantics;
    Alcotest.test_case "preservation at all levels" `Quick
      test_preservation_all_levels;
    Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
  ]
