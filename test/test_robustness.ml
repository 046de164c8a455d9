(* Robustness and determinism properties across the stack. *)

open X64

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

(* 1. the decoder never crashes on arbitrary bytes: it either decodes
   an instruction of positive length or raises Decode_error *)
let prop_decoder_total =
  QCheck.Test.make ~count:2000 ~name:"decoder total on random bytes"
    (QCheck.make
       QCheck.Gen.(
         string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 1 24)))
    (fun bytes ->
      match Decode.decode ~addr:0x400000 bytes 0 with
      | i, len ->
        (* whatever decodes must also print and re-encode *)
        len > 0
        && len <= String.length bytes
        && String.length (Disasm.to_string i) > 0
      | exception Decode.Decode_error _ -> true
      | exception Encode.Encode_error _ -> false)

(* 2. linear sweep of a decodable stream terminates and covers it *)
let prop_sweep_covers =
  QCheck.Test.make ~count:300 ~name:"sweep covers every byte"
    QCheck.(make Gen.(list_size (int_range 1 30) Test_x64.gen_instr))
    (fun is ->
      let code = Encode.encode_seq ~addr:0x400000 is in
      let swept = Disasm.sweep_stream ~addr:0x400000 code in
      Array.fold_left ( + ) 0 swept.lens
      = String.length code)

(* 3. disassembly text is non-empty for every instruction *)
let prop_disasm_prints =
  QCheck.Test.make ~count:500 ~name:"disassembly never empty"
    (QCheck.make Test_x64.gen_instr)
    (fun i -> String.length (Disasm.to_string i) > 0)

(* 4. whole-pipeline determinism: compiling and running twice yields
   bit-identical binaries and identical cycle counts *)
let test_pipeline_determinism () =
  let b = Workloads.Spec.find "mcf" in
  let bin1 = Workloads.Spec.binary b and bin2 = Workloads.Spec.binary b in
  Alcotest.(check string) "binaries identical"
    (Binfmt.Relf.serialize bin1) (Binfmt.Relf.serialize bin2);
  let h1 = Redfat.harden bin1 and h2 = Redfat.harden bin2 in
  Alcotest.(check string) "hardened identical"
    (Binfmt.Relf.serialize h1.binary)
    (Binfmt.Relf.serialize h2.binary);
  let inputs = Workloads.Spec.ref_inputs b in
  let r1 = Redfat.run ~inputs h1.binary libredfat in
  let r2 = Redfat.run ~inputs h2.binary libredfat in
  Alcotest.(check int) "cycles identical" r1.run.cycles r2.run.cycles;
  Alcotest.(check int) "steps identical" r1.run.steps r2.run.steps

(* 5. the wrapper handles legacy (non-fat) allocations transparently *)
let test_legacy_allocation_through_wrapper () =
  let open Minic.Build in
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            (* far beyond the largest size class *)
            let_ "big" (alloc_bytes (i (600 * 1024 * 1024)));
            set (v "big") (i 0) (i 7);
            set (v "big") (i 1000) (i 8);
            print_ (idx (v "big") (i 0) +: idx (v "big") (i 1000));
            free_ (v "big");
            return_ (i 0);
          ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let hard = Redfat.harden bin in
  let hr = Redfat.run hard.binary libredfat in
  match hr.verdict with
  | Redfat.Finished 0 ->
    Alcotest.(check (list int)) "output" [ 15 ] hr.run.outputs
  | v -> Alcotest.failf "legacy run: %s" (Redfat.verdict_to_string v)

(* 6. -reads really does stop read detection (the CVE-2016-1903 info
   leak is only caught when reads are instrumented) *)
let test_reads_flag_controls_read_detection () =
  let c = Workloads.Cve.php_gd_rotate in
  let bin = Workloads.Cve.binary c in
  let full = Redfat.harden bin in
  let hr = Redfat.run ~inputs:c.attack_inputs full.binary libredfat in
  (match hr.verdict with
   | Redfat.Detected _ -> ()
   | v -> Alcotest.failf "full: %s" (Redfat.verdict_to_string v));
  let wo =
    Redfat.harden ~opts:{ Redfat.Rewrite.optimized with instrument_reads = false }
      bin
  in
  let hr =
    Redfat.run ~inputs:c.attack_inputs wo.binary
      (Hardened { Redfat.Runtime.default_options with check_reads = false })
  in
  match hr.verdict with
  | Redfat.Finished _ -> () (* the read leak is the cost of -reads *)
  | v -> Alcotest.failf "writes-only: %s" (Redfat.verdict_to_string v)

(* 7. merged checks keep exact bounds: accesses at the edges of a
   merged displacement range are judged like unmerged ones *)
let test_merged_bounds_exact () =
  let open Minic.Build in
  (* unrolled 3-store run with the last displacement out of bounds for
     small arrays: merged check must still flag exactly when the
     farthest store overflows *)
  let prog elems =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i elems));
            msets (v "a") (i 0) [ (0, i 1); (1, i 2); (2, i 3) ];
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let verdict elems =
    let hard = Redfat.harden (Minic.Codegen.compile (prog elems)) in
    (Redfat.run hard.binary libredfat).verdict
  in
  (match verdict 3 with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "3 elems: %s" (Redfat.verdict_to_string v));
  match verdict 2 with
  | Redfat.Detected _ -> ()
  | v -> Alcotest.failf "2 elems: %s" (Redfat.verdict_to_string v)

(* 8. randomized heap preserves behaviour and detection *)
let test_randomization_preserves_semantics () =
  let b = Workloads.Spec.find "perlbench" in
  let bin = Workloads.Spec.binary b in
  let inputs = Workloads.Spec.train_inputs b in
  let eng = Engine.Pipeline.create ~cache:false () in
  let w = Engine.Pipeline.workflow eng ~train:[ inputs ] ~inputs bin in
  let seeded = Redfat.Runtime.{ default_options with random = Some 99 } in
  let plain = Redfat.run ~inputs w.hard.binary libredfat in
  let rand = Redfat.run ~inputs w.hard.binary (Hardened seeded) in
  Alcotest.(check (list int)) "same outputs" plain.run.outputs rand.run.outputs;
  (* detection still works under randomization *)
  let c = List.hd Workloads.Juliet.all in
  let jb = Workloads.Juliet.binary c in
  let jh = Redfat.harden jb in
  let hr = Redfat.run ~inputs:c.attack_inputs jh.binary (Hardened seeded) in
  match hr.verdict with
  | Redfat.Detected _ -> ()
  | v -> Alcotest.failf "randomized detection: %s" (Redfat.verdict_to_string v)

(* 9. nested calls as arguments, calls inside Multi_store values *)
let test_codegen_torture () =
  let open Minic.Build in
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            (* call results used as multi-store values *)
            msets (v "a") (i 0)
              [ (0, call "g" [ i 1; call "g" [ i 2; i 3 ] ]);
                (1, call "g" [ call "g" [ i 4; i 5 ]; i 6 ]) ];
            print_ (idx (v "a") (i 0) +: idx (v "a") (i 1));
            free_ (v "a");
            return_ (i 0);
          ];
        Minic.Ast.func ~name:"g" ~params:[ "x"; "y" ]
          [ return_ ((v "x" *: i 10) +: v "y") ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let { Redfat.run = r; verdict = v; _ } = Redfat.run bin Baseline in
  (match v with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "torture: %s" (Redfat.verdict_to_string v));
  (* g(1, g(2,3)) = 10+23 = 33; g(g(4,5), 6) = 45*10+6 = 456 *)
  Alcotest.(check (list int)) "nested calls" [ 33 + 456 ] r.outputs;
  (* and hardened agrees *)
  let hard = Redfat.harden bin in
  let hr = Redfat.run hard.binary libredfat in
  Alcotest.(check (list int)) "hardened agrees" r.outputs hr.run.outputs

(* 10. storek with negative folded displacement *)
let test_negative_displacement () =
  let open Minic.Build in
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            setk (v "a") (i 5) (-2) (i 77); (* a[3] *)
            print_ (idx (v "a") (i 3));
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let hard = Redfat.harden bin in
  let hr = Redfat.run hard.binary libredfat in
  match hr.verdict with
  | Redfat.Finished 0 ->
    Alcotest.(check (list int)) "output" [ 77 ] hr.run.outputs
  | v -> Alcotest.failf "neg disp: %s" (Redfat.verdict_to_string v)

(* the array sweep against the reference list sweep, over the code of
   the Chrome-scale binary and the SPEC kernels: their plain text, and
   the text and trampolines of their hardened builds (a patched text
   may not sweep to its end; both must then fail alike) *)
let test_sweep_matches_reference () =
  let fleet =
    ("chrome", Workloads.Chrome.binary ())
    :: List.map
         (fun (b : Workloads.Spec.bench) -> (b.name, Workloads.Spec.binary b))
         Workloads.Spec.all
  in
  let same what (s : Binfmt.Relf.section) =
    let sweep f =
      match f ~addr:s.addr s.bytes with
      | l -> Ok l
      | exception Decode.Decode_error { addr; byte } -> Error (addr, byte)
    in
    if
      sweep Reference.sweep_list
      <> sweep Test_x64.Ref_decode.sweep
    then Alcotest.failf "%s: the sweeps differ" what
  in
  List.iter
    (fun (name, bin) ->
      same (name ^ " .text") (Binfmt.Relf.text_exn bin);
      let hard = (Redfat.Rewrite.rewrite Redfat.Rewrite.optimized bin).binary in
      List.iter
        (fun sec ->
          match Binfmt.Relf.find_section hard sec with
          | Some s -> same (Printf.sprintf "%s hardened %s" name sec) s
          | None -> Alcotest.failf "%s: no %s" name sec)
        [ ".text"; ".redfat" ])
    fleet

let tests =
  [
    QCheck_alcotest.to_alcotest prop_decoder_total;
    Alcotest.test_case "array sweep = reference sweep (Chrome, SPEC)" `Quick
      test_sweep_matches_reference;
    QCheck_alcotest.to_alcotest prop_sweep_covers;
    QCheck_alcotest.to_alcotest prop_disasm_prints;
    Alcotest.test_case "pipeline determinism" `Quick test_pipeline_determinism;
    Alcotest.test_case "legacy allocations" `Quick
      test_legacy_allocation_through_wrapper;
    Alcotest.test_case "-reads controls read detection" `Quick
      test_reads_flag_controls_read_detection;
    Alcotest.test_case "merged bounds exact" `Quick test_merged_bounds_exact;
    Alcotest.test_case "randomization preserves semantics" `Quick
      test_randomization_preserves_semantics;
    Alcotest.test_case "codegen torture" `Quick test_codegen_torture;
    Alcotest.test_case "negative displacement" `Quick
      test_negative_displacement;
  ]
