(* MiniC compiler correctness: compile programs and compare VM output
   against a reference OCaml evaluation. *)

open Minic.Ast
open Minic.Build

let run ?(inputs = []) prog =
  let bin = Minic.Codegen.compile prog in
  let { Redfat.run = r; verdict = v; _ } = Redfat.run ~inputs bin Baseline in
  match v with
  | Redfat.Finished _ -> r.outputs
  | v -> Alcotest.failf "run failed: %s" (Redfat.verdict_to_string v)

let main_prog body = Minic.Ast.program [ Minic.Ast.func ~name:"main" body ]

let check_outputs name expected outputs =
  Alcotest.(check (list int)) name expected outputs

let test_arithmetic () =
  check_outputs "arith"
    [ 17 - 4; 6 * 7; 100 / 7; 100 mod 7; 0b1100 land 0b1010;
      0b1100 lor 0b1010; 0b1100 lxor 0b1010; 5 lsl 3; 1024 lsr 4 ]
    (run
       (main_prog
          [
            print_ (i 17 -: i 4);
            print_ (i 6 *: i 7);
            print_ (i 100 /: i 7);
            print_ (i 100 %: i 7);
            print_ (i 0b1100 &: i 0b1010);
            print_ (i 0b1100 |: i 0b1010);
            print_ (i 0b1100 ^: i 0b1010);
            print_ (i 5 <<: 3);
            print_ (i 1024 >>: 4);
          ]))

let test_comparisons () =
  check_outputs "cmp" [ 1; 0; 1; 1; 0; 1 ]
    (run
       (main_prog
          [
            print_ (i 3 <: i 5);
            print_ (i 5 <: i 3);
            print_ (i 5 <=: i 5);
            print_ (i 5 >=: i 5);
            print_ (i 3 >: i 5);
            print_ (i 3 <>: i 5);
          ]))

let test_locals_and_assignment () =
  check_outputs "locals" [ 30 ]
    (run
       (main_prog
          [
            let_ "x" (i 10);
            let_ "y" (v "x" *: i 2);
            assign "x" (v "x" +: v "y");
            print_ (v "x");
          ]))

let test_if_else () =
  check_outputs "if" [ 1; 2 ]
    (run
       (main_prog
          [
            if_ (i 3 <: i 5) [ print_ (i 1) ] [ print_ (i 0) ];
            if_ (i 5 <: i 3) [ print_ (i 0) ] [ print_ (i 2) ];
          ]))

let test_nested_control () =
  (* count primes below 50 with trial division *)
  let expected =
    let count = ref 0 in
    for n = 2 to 49 do
      let p = ref true in
      for d = 2 to n - 1 do
        if n mod d = 0 then p := false
      done;
      if !p then incr count
    done;
    [ !count ]
  in
  check_outputs "primes" expected
    (run
       (main_prog
          [
            let_ "count" (i 0);
            for_ "n" (i 2) (i 50)
              [
                let_ "p" (i 1);
                for_ "d" (i 2) (v "n")
                  [ if_ (v "n" %: v "d" =: i 0) [ assign "p" (i 0) ] [] ];
                if_ (v "p" =: i 1) [ assign "count" (v "count" +: i 1) ] [];
              ];
            print_ (v "count");
          ]))

let test_while_loop () =
  check_outputs "collatz steps of 27" [ 111 ]
    (run
       (main_prog
          [
            let_ "n" (i 27);
            let_ "steps" (i 0);
            while_ (v "n" <>: i 1)
              [
                if_
                  (v "n" %: i 2 =: i 0)
                  [ assign "n" (v "n" /: i 2) ]
                  [ assign "n" (v "n" *: i 3 +: i 1) ];
                assign "steps" (v "steps" +: i 1);
              ];
            print_ (v "steps");
          ]))

let test_heap_arrays () =
  check_outputs "reverse sum" [ 10 + 2 * 9 + 3 * 8 + 4 * 7 ]
    (run
       (main_prog
          [
            let_ "a" (alloc_elems (i 4));
            set (v "a") (i 0) (i 10);
            set (v "a") (i 1) (i 9);
            set (v "a") (i 2) (i 8);
            set (v "a") (i 3) (i 7);
            let_ "s" (i 0);
            for_ "j" (i 0) (i 4)
              [ assign "s" (v "s" +: ((v "j" +: i 1) *: idx (v "a") (v "j"))) ];
            print_ (v "s");
            free_ (v "a");
          ]))

let test_byte_arrays () =
  check_outputs "byte ops" [ 255; 7 ]
    (run
       (main_prog
          [
            let_ "b" (alloc_bytes (i 16));
            set1 (v "b") (i 3) (i 0x1ff); (* truncates to 8 bits *)
            print_ (idx1 (v "b") (i 3));
            set1k (v "b") (i 0) 5 (i 7);
            print_ (idx1 (v "b") (i 5));
            free_ (v "b");
          ]))

let test_loadk_storek () =
  check_outputs "displacement folding" [ 21 ]
    (run
       (main_prog
          [
            let_ "a" (alloc_elems (i 8));
            setk (v "a") (i 2) 3 (i 21); (* a[5] = 21 *)
            print_ (idxk (v "a") (i 4) 1); (* a[5] *)
            free_ (v "a");
          ]))

let test_multi_store () =
  check_outputs "multi store" [ 1; 2; 3 ]
    (run
       (main_prog
          [
            let_ "a" (alloc_elems (i 8));
            msets (v "a") (i 2) [ (0, i 1); (1, i 2); (2, i 3) ];
            print_ (idx (v "a") (i 2));
            print_ (idx (v "a") (i 3));
            print_ (idx (v "a") (i 4));
            free_ (v "a");
          ]))

let test_functions_and_args () =
  check_outputs "4-arg function" [ (1 * 2) + (3 * 4) ]
    (run
       (Minic.Ast.program
          [
            Minic.Ast.func ~name:"main"
              [ print_ (call "madd" [ i 1; i 2; i 3; i 4 ]) ];
            Minic.Ast.func ~name:"madd" ~params:[ "a"; "b"; "c"; "d" ]
              [ return_ ((v "a" *: v "b") +: (v "c" *: v "d")) ];
          ]))

let test_recursion () =
  check_outputs "fib 15" [ 610 ]
    (run
       (Minic.Ast.program
          [
            Minic.Ast.func ~name:"main" [ print_ (call "fib" [ i 15 ]) ];
            Minic.Ast.func ~name:"fib" ~params:[ "n" ]
              [
                if_ (v "n" <: i 2)
                  [ return_ (v "n") ]
                  [
                    return_
                      (call "fib" [ v "n" -: i 1 ]
                      +: call "fib" [ v "n" -: i 2 ]);
                  ];
              ];
          ]))

let test_call_in_expression_preserves_scratch () =
  (* the call result is combined with values held in scratch registers
     across the call: exercises caller-save logic *)
  check_outputs "scratch preserved" [ 1000 + 42 + 7 ]
    (run
       (Minic.Ast.program
          [
            Minic.Ast.func ~name:"main"
              [
                let_ "x" (i 1000);
                print_ (v "x" +: call "f" [] +: i 7);
              ];
            Minic.Ast.func ~name:"f" [ return_ (i 42) ];
          ]))

let test_deep_expression_spills () =
  (* expression deeper than the 4 scratch registers: forces the
     push/pop spill path with rsp-relative local fixups *)
  let e =
    List.fold_left
      (fun acc k -> Bin (Minic.Ast.Add, acc, Bin (Minic.Ast.Mul, v "x", i k)))
      (v "x")
      [ 2; 3; 4; 5; 6; 7 ]
  in
  let deep = Bin (Minic.Ast.Add, e, Bin (Minic.Ast.Mul, e, e)) in
  let x = 3 in
  let ev = x + (2 * x) + (3 * x) + (4 * x) + (5 * x) + (6 * x) + (7 * x) in
  check_outputs "spills" [ ev + (ev * ev) ]
    (run (main_prog [ let_ "x" (i 3); print_ deep ]))

let test_many_locals_spill_to_stack () =
  (* more locals than callee-saved registers: some live on the stack *)
  let names = List.init 12 (fun k -> Printf.sprintf "v%d" k) in
  let decls = List.mapi (fun k n -> let_ n (i (k * k))) names in
  let sum =
    List.fold_left (fun acc n -> acc +: v n) (i 0) names
  in
  let expected = List.fold_left ( + ) 0 (List.init 12 (fun k -> k * k)) in
  check_outputs "12 locals" [ expected ]
    (run (main_prog (decls @ [ print_ sum ])))

let test_function_pointers () =
  (* a dispatch table of function pointers in a heap array *)
  check_outputs "dispatch" [ 10 + 1; 10 * 2; 10 - 3 ]
    (run
       (Minic.Ast.program
          [
            Minic.Ast.func ~name:"main"
              [
                let_ "tab" (alloc_elems (i 3));
                set (v "tab") (i 0) (addr_of "inc");
                set (v "tab") (i 1) (addr_of "dbl");
                set (v "tab") (i 2) (addr_of "sub3");
                for_ "j" (i 0) (i 3)
                  [ print_ (call_ptr (idx (v "tab") (v "j")) [ i 10 ]) ];
                free_ (v "tab");
              ];
            Minic.Ast.func ~name:"inc" ~params:[ "x" ] [ return_ (v "x" +: i 1) ];
            Minic.Ast.func ~name:"dbl" ~params:[ "x" ] [ return_ (v "x" *: i 2) ];
            Minic.Ast.func ~name:"sub3" ~params:[ "x" ] [ return_ (v "x" -: i 3) ];
          ]))

let test_interp_kernel () =
  (* the dispatch-loop kernel runs and is deterministic *)
  let prog =
    Minic.Ast.program
      (Minic.Ast.func ~name:"main"
         [ print_ (call "vm" [ i 50 ]) ]
      :: Workloads.Kernels.interp_funcs "vm")
  in
  let o1 = run prog and o2 = run prog in
  Alcotest.(check (list int)) "deterministic" o1 o2;
  Alcotest.(check int) "one output" 1 (List.length o1)

let test_globals () =
  check_outputs "global array" [ 55 ]
    (run
       (Minic.Ast.program
          ~globals:[ ("gtab", 128) ]
          [
            Minic.Ast.func ~name:"main"
              [
                for_ "j" (i 0) (i 10)
                  [ set (v "gtab") (v "j") (v "j" +: i 1) ];
                let_ "s" (i 0);
                for_ "j" (i 0) (i 10)
                  [ assign "s" (v "s" +: idx (v "gtab") (v "j")) ];
                print_ (v "s");
              ];
          ]))

let test_input_scripting () =
  check_outputs "inputs" [ 30; 0 ]
    (run ~inputs:[ 10; 20 ]
       (main_prog
          [
            let_ "a" Input;
            let_ "b" Input;
            print_ (v "a" +: v "b");
            print_ Input; (* exhausted -> 0 *)
          ]))

let test_exit_code () =
  let bin =
    Minic.Codegen.compile (main_prog [ return_ (i 42) ])
  in
  let v = (Redfat.run bin Baseline).verdict in
  (* main's return value is not the process exit code in our ABI (the
     final ret halts with code 0), like _start ignoring main's rax *)
  match v with
  | Redfat.Finished 0 -> ()
  | v -> Alcotest.failf "unexpected: %s" (Redfat.verdict_to_string v)

let test_compile_errors () =
  let expect_error name prog =
    match Minic.Codegen.compile prog with
    | exception Minic.Codegen.Compile_error _ -> ()
    | _ -> Alcotest.failf "%s: expected Compile_error" name
  in
  expect_error "unbound variable" (main_prog [ print_ (v "nope") ]);
  expect_error "no main"
    (Minic.Ast.program [ Minic.Ast.func ~name:"f" [ return_ (i 0) ] ]);
  expect_error "non-constant shift"
    (main_prog [ let_ "x" (i 1); print_ (Bin (Minic.Ast.Shl, i 1, v "x")) ]);
  expect_error "too many args"
    (Minic.Ast.program
       [
         Minic.Ast.func ~name:"main"
           [ print_ (call "f" [ i 1; i 2; i 3; i 4; i 5 ]) ];
         Minic.Ast.func ~name:"f" ~params:[ "a"; "b"; "c"; "d"; "e" ]
           [ return_ (i 0) ];
       ])

let test_codegen_emits_indexed_operands () =
  (* the property the whole rewriter relies on: array accesses become
     single instructions with (base, idx, scale) memory operands *)
  let bin =
    Minic.Codegen.compile
      (main_prog
         [
           let_ "a" (alloc_elems (i 8));
           let_ "j" (i 3);
           set (v "a") (v "j") (i 1);
           free_ (v "a");
         ])
  in
  let text = Binfmt.Relf.text_exn bin in
  let found =
    Array.exists
      (fun instr ->
        match instr with
        | X64.Isa.Store (X64.Isa.W8, m, _) ->
          m.base <> None && m.idx <> None && m.scale = 8
        | _ -> false)
      (X64.Disasm.sweep_stream ~addr:text.addr text.bytes).instrs
  in
  Alcotest.(check bool) "indexed store present" true found

let test_hot_locals_in_registers () =
  (* loop counters must not generate stack traffic at every iteration *)
  let bin =
    Minic.Codegen.compile
      (main_prog
         [
           let_ "s" (i 0);
           for_ "j" (i 0) (i 100) [ assign "s" (v "s" +: v "j") ];
           print_ (v "s");
         ])
  in
  let r = (Redfat.run bin Baseline).run in
  (* a stack-allocated loop would do >= 3 memory ops per iteration *)
  Alcotest.(check bool) "register-allocated loop" true
    (r.mem_reads + r.mem_writes < 100)

let tests =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "locals" `Quick test_locals_and_assignment;
    Alcotest.test_case "if/else" `Quick test_if_else;
    Alcotest.test_case "nested control" `Quick test_nested_control;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "heap arrays" `Quick test_heap_arrays;
    Alcotest.test_case "byte arrays" `Quick test_byte_arrays;
    Alcotest.test_case "loadk/storek" `Quick test_loadk_storek;
    Alcotest.test_case "multi store" `Quick test_multi_store;
    Alcotest.test_case "functions and args" `Quick test_functions_and_args;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "call preserves scratch" `Quick
      test_call_in_expression_preserves_scratch;
    Alcotest.test_case "deep expression spills" `Quick
      test_deep_expression_spills;
    Alcotest.test_case "many locals spill" `Quick
      test_many_locals_spill_to_stack;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "interp kernel" `Quick test_interp_kernel;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "input scripting" `Quick test_input_scripting;
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "compile errors" `Quick test_compile_errors;
    Alcotest.test_case "indexed operands emitted" `Quick
      test_codegen_emits_indexed_operands;
    Alcotest.test_case "hot locals in registers" `Quick
      test_hot_locals_in_registers;
  ]
