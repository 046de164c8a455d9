(* The MiniC front-end: lexer + parser + source-to-binary pipeline. *)

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let run_src ?(inputs = []) src =
  let bin = Minic.Parser.compile_source src in
  let { Redfat.run = r; verdict = v; _ } = Redfat.run ~inputs bin Baseline in
  match v with
  | Redfat.Finished _ -> r.outputs
  | v -> Alcotest.failf "run: %s" (Redfat.verdict_to_string v)

let check name expected src =
  Alcotest.(check (list int)) name expected (run_src src)

let test_hello () =
  check "print" [ 42 ] "fn main() { print(42); return 0; }"

let test_precedence () =
  check "C precedence" [ 1 + (2 * 3); (1 + 2) * 3; 7 - 2 - 1; 100 / 5 / 2;
                         1 lor (2 lxor (3 land 6)); 5 land 3 lxor 1;
                         (1 + 1) lsl 2; 3 * 4 mod 5 ]
    {|
    fn main() {
      print(1 + 2 * 3);
      print((1 + 2) * 3);
      print(7 - 2 - 1);       // left assoc
      print(100 / 5 / 2);
      print(1 | 2 ^ 3 & 6);   // and > xor > or
      print(5 & 3 ^ 1);
      print((1 + 1) << 2);
      print(3 * 4 % 5);
      return 0;
    }
    |}

let test_comparisons_and_logic () =
  check "logic" [ 1; 0; 1; 1 ]
    {|
    fn main() {
      print(3 < 5 && 5 <= 5);
      print(3 > 5 || 0);
      print(1 == 1);
      print(2 != 3);
      return 0;
    }
    |}

let test_unary () =
  check "unary" [ -5; lnot 12; 0 - 3 ]
    {|
    fn main() {
      print(-5);
      print(~12);
      var x = 3;
      print(-x);
      return 0;
    }
    |}

let test_control_flow () =
  (* sum of odd numbers below 20 via if inside for, then a while *)
  let expected = ref 0 in
  for j = 0 to 19 do
    if j mod 2 = 1 then expected := !expected + j
  done;
  check "control flow" [ !expected; 16 ]
    {|
    fn main() {
      var s = 0;
      for (j in 0 .. 20) {
        if (j % 2 == 1) { s = s + j; }
      }
      print(s);
      var x = 1;
      while (x < 10) { x = x * 2; }
      print(x);
      return 0;
    }
    |}

let test_arrays_and_bytes () =
  check "arrays" [ 55; 255; 7 ]
    {|
    fn main() {
      var a = alloc(10);
      for (j in 0 .. 10) { a[j] = j + 1; }
      var s = 0;
      for (j in 0 .. 10) { s = s + a[j]; }
      print(s);
      var b = balloc(16);
      b.[3] = 255;
      print(b.[3]);
      b.[4 + 1] = 7;          // folded into a Storek displacement
      print(b.[5]);
      free(a); free(b);
      return 0;
    }
    |}

let test_functions_and_recursion () =
  check "fib" [ 610 ]
    {|
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { print(fib(15)); return 0; }
    |}

let test_function_pointers () =
  check "fn pointers" [ 30; 11 ]
    {|
    fn dbl(x) { return x * 2; }
    fn inc(x) { return x + 1; }
    fn main() {
      var t = alloc(2);
      t[0] = &dbl;
      t[1] = &inc;
      print((t[0])(15));
      print((t[1])(10));
      free(t);
      return 0;
    }
    |}

let test_globals_and_input () =
  Alcotest.(check (list int)) "globals+input" [ 12 ]
    (run_src ~inputs:[ 5; 7 ]
       {|
       global acc[4];
       fn main() {
         acc[0] = input();
         acc[1] = input();
         print(acc[0] + acc[1]);
         return 0;
       }
       |})

let test_comments () =
  check "comments" [ 9 ]
    "fn main() { /* block\n comment */ var x = 9; // line\n print(x); return 0; }"

let test_hex_literals () =
  check "hex" [ 255; 4096 ] "fn main() { print(0xff); print(0x1000); return 0; }"

(* error reporting: message and position *)
let expect_parse_error src ~line =
  match Minic.Parser.compile_source src with
  | exception Minic.Parser.Parse_error (_, pos) ->
    Alcotest.(check int) "error line" line pos.line
  | exception Minic.Lexer.Lex_error (_, pos) ->
    Alcotest.(check int) "error line" line pos.line
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_parse_error "fn main() { print(1) }" ~line:1; (* missing ; *)
  expect_parse_error "fn main() {\n  1 + = 2;\n}" ~line:2;
  expect_parse_error "fn main() {\n  x[0] + 1 = 2;\n}" ~line:2; (* not lvalue *)
  expect_parse_error "fn main() { var x = 0x; }" ~line:1;
  expect_parse_error "global g[]; fn main() { return 0; }" ~line:1;
  expect_parse_error "fn main() { $ }" ~line:1

let test_source_hardening_end_to_end () =
  (* the full pipeline: source -> binary -> harden -> attack stopped *)
  let src =
    {|
    fn main() {
      var a = alloc(8);
      var victim = alloc(8);
      victim[0] = 7;
      a[input()] = 65;
      print(victim[0]);
      free(a); free(victim);
      return 0;
    }
    |}
  in
  let bin = Minic.Parser.compile_source src in
  let hard = Redfat.harden bin in
  let ok = Redfat.run ~inputs:[ 3 ] hard.binary libredfat in
  (match ok.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "benign: %s" (Redfat.verdict_to_string v));
  let bad = Redfat.run ~inputs:[ 12 ] hard.binary libredfat in
  match bad.verdict with
  | Redfat.Detected _ -> ()
  | v -> Alcotest.failf "attack: %s" (Redfat.verdict_to_string v)

let test_parser_matches_builder () =
  (* the parsed program compiles to the same binary as the builder AST *)
  let open Minic.Build in
  let built =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 4));
            for_ "j" (i 0) (i 4) [ set (v "a") (v "j") (v "j" *: i 3) ];
            print_ (idxk (v "a") (i 1) 2);
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let parsed =
    Minic.Parser.parse_program
      {|
      fn main() {
        var a = alloc(4);
        for (j in 0 .. 4) { a[j] = j * 3; }
        print(a[1 + 2]);
        free(a);
        return 0;
      }
      |}
  in
  Alcotest.(check string) "identical binaries"
    (Binfmt.Relf.serialize (Minic.Codegen.compile built))
    (Binfmt.Relf.serialize (Minic.Codegen.compile parsed))

let tests =
  [
    Alcotest.test_case "hello" `Quick test_hello;
    Alcotest.test_case "precedence" `Quick test_precedence;
    Alcotest.test_case "comparisons and logic" `Quick
      test_comparisons_and_logic;
    Alcotest.test_case "unary" `Quick test_unary;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "arrays and bytes" `Quick test_arrays_and_bytes;
    Alcotest.test_case "functions and recursion" `Quick
      test_functions_and_recursion;
    Alcotest.test_case "function pointers" `Quick test_function_pointers;
    Alcotest.test_case "globals and input" `Quick test_globals_and_input;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "hex literals" `Quick test_hex_literals;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "source to hardened binary" `Quick
      test_source_hardening_end_to_end;
    Alcotest.test_case "parser matches builder" `Quick
      test_parser_matches_builder;
  ]
