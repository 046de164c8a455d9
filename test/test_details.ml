(* Targeted edge-case tests across modules. *)

open X64
module Rt = Redfat_rt.Runtime

let libredfat = Redfat.Hardened Rt.default_options

(* --- encoder limits -------------------------------------------------- *)

let test_encode_disp_limits () =
  let enc i =
    let b = Buffer.create 16 in
    Encode.encode_at b 0x400000 i;
    Buffer.contents b
  in
  (* extreme but legal displacements round-trip *)
  List.iter
    (fun disp ->
      let i = Isa.Store (Isa.W8, Isa.mem ~disp ~base:Isa.rax (), Isa.rbx) in
      let i', _ = Decode.decode ~addr:0x400000 (enc i) 0 in
      Alcotest.(check bool) (Printf.sprintf "disp %d" disp) true (i = i'))
    [ 0x7fff_ffff; -0x8000_0000; 127; -128; 128; -129 ];
  (* out-of-range immediates are rejected, not silently truncated *)
  Alcotest.(check bool) "disp overflow rejected" true
    (match enc (Isa.Alu_ri (Isa.Add, Isa.rax, 1 lsl 40)) with
     | exception Encode.Encode_error _ -> true
     | _ -> false)

let test_rel32_range_check () =
  (* a jump farther than ±2 GiB cannot be encoded *)
  Alcotest.(check bool) "far jump rejected" true
    (match
       let b = Buffer.create 8 in
       Encode.encode_at b 0x400000 (Isa.Jmp (0x400000 + (1 lsl 33)))
     with
     | exception Encode.Encode_error _ -> true
     | _ -> false)

(* --- cost model ------------------------------------------------------ *)

let test_far_jump_penalty () =
  let run target =
    let items =
      [ Asm.I (Isa.Jmp target) ]
    in
    let code, _ = Asm.assemble ~origin:0x400000 items in
    let cpu = Vm.Cpu.create () in
    Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
    (* land on a Ret at the target *)
    Vm.Mem.write_string cpu.mem ~addr:target
      (Encode.encode_seq ~addr:target [ Isa.Ret ]);
    Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
    cpu.regs.(Isa.rsp) <- 0x7fff00;
    let rt =
      { Vm.Cpu.rt_malloc = (fun _ _ -> 0); rt_free = (fun _ _ -> ());
        rt_name = "null" }
    in
    let (_ : int) = Vm.Cpu.run cpu rt ~entry:0x400000 in
    cpu.cycles
  in
  let near = run 0x400100 in
  let far = run 0x40400000 in
  Alcotest.(check bool)
    (Printf.sprintf "far (%d) > near (%d)" far near)
    true (far > near)

(* --- CFG helpers ----------------------------------------------------- *)

let test_index_at () =
  let items =
    [ Asm.I (Isa.Mov_ri (Isa.rax, 1)); Asm.I (Isa.Nop 1); Asm.I Isa.Ret ]
  in
  let code, _ = Asm.assemble ~origin:0x400000 items in
  let cfg = Dataflow.Graph.recover ~entry:0x400000 code in
  Alcotest.(check (option int)) "first" (Some 0)
    (Dataflow.Graph.index_at cfg 0x400000);
  Alcotest.(check (option int)) "second" (Some 1)
    (Dataflow.Graph.index_at cfg 0x400006);
  Alcotest.(check (option int)) "misaligned" None
    (Dataflow.Graph.index_at cfg 0x400003)

(* --- hardened binaries disassemble ----------------------------------- *)

let test_hardened_binary_disassembles () =
  let b = Workloads.Spec.find "mcf" in
  let hard = Redfat.harden (Workloads.Spec.binary b) in
  let text = Binfmt.Relf.disasm hard.binary in
  Alcotest.(check bool) "patched text shows jumps" true
    (String.length text > 0);
  match Binfmt.Relf.find_section hard.binary ".redfat" with
  | None -> Alcotest.fail "no trampoline section"
  | Some s ->
    let tramp = Disasm.dump ~addr:s.addr s.bytes in
    (* trampolines contain the Check pseudo-ops and return jumps *)
    Alcotest.(check bool) "checks visible" true
      (String.length tramp > 0
      && String.index_opt tramp 'c' <> None (* "check..." lines *))

(* --- Juliet control-flow wrappers are behaviour-invariant ------------- *)

let test_juliet_variants_equivalent () =
  (* all 32 variants of one pattern produce the same verdicts, even
     though the binaries differ (guards, call depth, data laundering) *)
  let cases =
    List.filter (fun (c : Workloads.Juliet.case) -> c.pattern = 0)
      Workloads.Juliet.all
  in
  Alcotest.(check int) "32 variants" 32 (List.length cases);
  let binaries =
    List.map (fun c -> Binfmt.Relf.serialize (Workloads.Juliet.binary c)) cases
  in
  Alcotest.(check bool) "variants differ as binaries" true
    (List.length (List.sort_uniq compare binaries) > 16);
  List.iter
    (fun (c : Workloads.Juliet.case) ->
      let hard = Redfat.harden (Workloads.Juliet.binary c) in
      let benign = Redfat.run ~inputs:c.benign_inputs hard.binary libredfat in
      let attack = Redfat.run ~inputs:c.attack_inputs hard.binary libredfat in
      match (benign.verdict, attack.verdict) with
      | Redfat.Finished 0, Redfat.Detected _ -> ()
      | b, a ->
        Alcotest.failf "%s: benign=%s attack=%s" c.id
          (Redfat.verdict_to_string b) (Redfat.verdict_to_string a))
    cases

(* --- error explanations ----------------------------------------------- *)

let test_explain_messages () =
  let mem = Vm.Mem.create () in
  let rt = Rt.create ~options:{ Rt.default_options with mode = Rt.Log } mem in
  let cpu = Vm.Cpu.create () in
  let a = Rt.malloc rt 64 in
  let _b = Rt.malloc rt 64 in
  cpu.regs.(Isa.rbx) <- a;
  let error_of lo hi =
    ignore
      (Rt.check rt cpu
         {
           Isa.ck_variant = Isa.Full;
           ck_mem = Isa.mem ~base:Isa.rbx ();
           ck_lo = lo;
           ck_hi = hi;
           ck_write = true;
           ck_site = 0x400100;
           ck_nsaves = 0;
           ck_save_flags = false;
         });
    match List.rev (Rt.errors rt) with
    | e :: _ -> e
    | [] -> Alcotest.fail "no error"
  in
  let contains hay needle =
    let rec go i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  (* skip into the next object *)
  let e = error_of 80 88 in
  Alcotest.(check bool) "skip explained" true
    (contains (Rt.explain rt e) "non-incremental skip");
  (* below the object *)
  let e = error_of (-4) 0 in
  Alcotest.(check bool) "below explained" true
    (contains (Rt.explain rt e) "below")

(* --- shadow granule edges --------------------------------------------- *)

let test_shadow_granule_edges () =
  let sh = Redfat_rt.Shadow.create () in
  Redfat_rt.Shadow.mark_allocated sh ~addr:0x4000 ~len:1;
  Alcotest.(check bool) "1-byte object byte 0" true
    (Redfat_rt.Shadow.state sh 0x4000 = Redfat_rt.Shadow.Allocated);
  Alcotest.(check bool) "1-byte object byte 1" true
    (Redfat_rt.Shadow.state sh 0x4001 = Redfat_rt.Shadow.Redzone);
  (* exactly granule-sized *)
  Redfat_rt.Shadow.mark_allocated sh ~addr:0x5000 ~len:8;
  Alcotest.(check bool) "byte 7 ok" true
    (Redfat_rt.Shadow.state sh 0x5007 = Redfat_rt.Shadow.Allocated);
  Alcotest.(check bool) "byte 8 poison" true
    (Redfat_rt.Shadow.state sh 0x5008 = Redfat_rt.Shadow.Redzone)

(* --- spec program structure ------------------------------------------ *)

let test_spec_structure () =
  (* benchmarks with full coverage have no ref-only clone; benchmarks
     with FP sites carry the fp function *)
  let count_funcs b =
    List.length (Workloads.Spec.program b).Minic.Ast.funcs
  in
  let libq = Workloads.Spec.find "libquantum" in
  Alcotest.(check int) "libquantum: main+kernel" 2 (count_funcs libq);
  let gems = Workloads.Spec.find "GemsFDTD" in
  Alcotest.(check int) "GemsFDTD: main+kernel+ref+fp" 4 (count_funcs gems);
  let hmmer = Workloads.Spec.find "hmmer" in
  Alcotest.(check int) "hmmer: main+kernel+ref" 3 (count_funcs hmmer)

(* --- kraken suite shape ----------------------------------------------- *)

let test_kraken_names_match_figure8 () =
  let names = List.map (fun (b : Workloads.Kraken.bench) -> b.name)
      Workloads.Kraken.all
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) expected true (List.mem expected names))
    [ "ai-astar"; "audio-fft"; "imaging-gaussian-blur";
      "json-parse-financial"; "crypto-pbkdf2"; "crypto-sha256-iterative" ]

let tests =
  [
    Alcotest.test_case "encoder displacement limits" `Quick
      test_encode_disp_limits;
    Alcotest.test_case "rel32 range check" `Quick test_rel32_range_check;
    Alcotest.test_case "far jump penalty" `Quick test_far_jump_penalty;
    Alcotest.test_case "cfg index_at" `Quick test_index_at;
    Alcotest.test_case "hardened binary disassembles" `Quick
      test_hardened_binary_disassembles;
    Alcotest.test_case "juliet variants equivalent" `Slow
      test_juliet_variants_equivalent;
    Alcotest.test_case "error explanations" `Quick test_explain_messages;
    Alcotest.test_case "shadow granule edges" `Quick test_shadow_granule_edges;
    Alcotest.test_case "spec program structure" `Quick test_spec_structure;
    Alcotest.test_case "kraken names match figure 8" `Quick
      test_kraken_names_match_figure8;
  ]
