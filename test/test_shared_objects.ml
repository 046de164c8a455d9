(* Shared objects and separate instrumentation (paper §7.4):
   "if the main program is instrumented by RedFat, but a dynamic
   library dependency is not, then only the former will enjoy memory
   error protection at runtime.  RedFat supports both ELF executables
   and shared objects, meaning that it is possible to separately
   instrument both." *)

open Minic.Ast
open Minic.Build

let lib_origin = Lowfat.Layout.code_base + 0x10_0000
let lib_tramp = Lowfat.Layout.trampoline_base + 0x100_0000

(* libdecoder.so: a vulnerable write primitive that counts its calls
   in a global of its own *)
let lib_program =
  Minic.Ast.program ~globals:[ ("calls", 8) ]
    [
      func ~name:"decode" ~params:[ "buf"; "idx" ]
        [
          set (v "calls") (i 0) (idx (v "calls") (i 0) +: i 1);
          Store (E8, v "buf", v "idx", i 0x41);
          return_ (i 1);
        ];
    ]

let lib_binary, lib_symbols =
  Minic.Codegen.compile_with_symbols ~origin:lib_origin
    ~data_origin:(Lowfat.Layout.data_base + 0x10_0000) ~shared:true
    lib_program

(* the main executable calls into the library; it also has its own
   vulnerable write so both directions can be tested *)
let main_program =
  Minic.Ast.program
    [
      func ~name:"main"
        [
          let_ "pre" (alloc_elems (i 8));
          let_ "buf" (alloc_elems (i 8));
          let_ "post" (alloc_elems (i 8));
          set (v "post") (i 0) (i 7);
          let_ "which" Input;
          let_ "k" Input;
          if_ (v "which" =: i 0)
            [ expr (call "decode" [ v "buf"; v "k" ]) ] (* via the .so *)
            [ set (v "buf") (v "k") (i 0x42) ];         (* in main *)
          print_ (idx (v "post") (i 0));
          free_ (v "pre"); free_ (v "buf"); free_ (v "post");
          return_ (i 0);
        ];
    ]

let main_binary = Minic.Codegen.compile ~externs:lib_symbols main_program

let skip = 12 (* elements: past the redzone, into live neighbour data *)

let run ~main ~lib ~inputs =
  Redfat.run ~libs:[ lib ] ~inputs main
    (Hardened Redfat.Runtime.default_options)

let test_cross_module_call_works () =
  List.iter
    (fun inputs ->
      let { Redfat.run = r; verdict = v; _ } =
        Redfat.run ~libs:[ lib_binary ] ~inputs main_binary Baseline
      in
      (match v with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "baseline: %s" (Redfat.verdict_to_string v));
      Alcotest.(check (list int)) "benign output" [ 7 ] r.outputs;
      (* Memcheck marks every module of the image addressable, the
         library's sections as well as the executable's *)
      let mc = Redfat.run ~libs:[ lib_binary ] ~inputs main_binary Memcheck in
      (match mc.verdict with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "memcheck: %s" (Redfat.verdict_to_string v));
      Alcotest.(check int) "no memcheck errors" 0
        (List.length (Baselines.Memcheck.errors mc.state)))
    [ [ 0; 3 ]; [ 1; 3 ] ]

let test_only_instrumented_module_protected () =
  (* harden the executable only *)
  let hard_main = Redfat.harden main_binary in
  (* benign runs work *)
  let b = run ~main:hard_main.binary ~lib:lib_binary ~inputs:[ 0; 3 ] in
  (match b.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "benign: %s" (Redfat.verdict_to_string v));
  (* attack through main's own write: detected *)
  let a1 = run ~main:hard_main.binary ~lib:lib_binary ~inputs:[ 1; skip ] in
  (match a1.verdict with
   | Redfat.Detected _ -> ()
   | v -> Alcotest.failf "main-site attack: %s" (Redfat.verdict_to_string v));
  (* the same attack through the UNinstrumented library: silent *)
  let a0 = run ~main:hard_main.binary ~lib:lib_binary ~inputs:[ 0; skip ] in
  match a0.verdict with
  | Redfat.Finished 0 -> () (* §7.4: only instrumented modules protected *)
  | v -> Alcotest.failf "lib-site attack unexpectedly: %s"
           (Redfat.verdict_to_string v)

let test_separately_instrumented_library () =
  (* now harden the library too, with its own trampoline area *)
  let hard_main = Redfat.harden main_binary in
  let hard_lib =
    Redfat.Rewrite.rewrite ~tramp_base:lib_tramp Redfat.Rewrite.optimized
      lib_binary
  in
  let b = run ~main:hard_main.binary ~lib:hard_lib.binary ~inputs:[ 0; 3 ] in
  (match b.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "benign: %s" (Redfat.verdict_to_string v));
  let a = run ~main:hard_main.binary ~lib:hard_lib.binary ~inputs:[ 0; skip ] in
  match a.verdict with
  | Redfat.Detected e ->
    Alcotest.(check bool) "detected inside the library" true
      (e.site >= lib_origin)
  | v -> Alcotest.failf "lib attack: %s" (Redfat.verdict_to_string v)

let test_library_symbols () =
  Alcotest.(check bool) "decode exported at lib origin" true
    (List.mem_assoc "fn_decode" lib_symbols
    && List.assoc "fn_decode" lib_symbols >= lib_origin)

let test_undefined_extern_rejected () =
  let prog =
    Minic.Ast.program
      [ func ~name:"main" [ expr (call "missing" [ i 1 ]) ] ]
  in
  match Minic.Codegen.compile prog with
  | exception Minic.Codegen.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected undefined-function error"

let tests =
  [
    Alcotest.test_case "cross-module call" `Quick test_cross_module_call_works;
    Alcotest.test_case "only instrumented module protected (7.4)" `Quick
      test_only_instrumented_module_protected;
    Alcotest.test_case "separately instrumented library" `Quick
      test_separately_instrumented_library;
    Alcotest.test_case "library symbol export" `Quick test_library_symbols;
    Alcotest.test_case "undefined extern rejected" `Quick
      test_undefined_extern_rejected;
  ]
