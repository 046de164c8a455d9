(* End-to-end integration: MiniC -> binary -> baseline / hardened /
   memcheck runs, semantic preservation, and detection. *)

open Minic.Build

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

(* sum of squares below n, via a heap array *)
let sum_squares_prog n =
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          let_ "a" (alloc_elems (i n));
          for_ "j" (i 0) (i n) [ set (v "a") (v "j") (v "j" *: v "j") ];
          let_ "s" (i 0);
          for_ "j" (i 0) (i n) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
          print_ (v "s");
          free_ (v "a");
          return_ (i 0);
        ];
    ]

let expected_sum_squares n =
  let s = ref 0 in
  for j = 0 to n - 1 do
    s := !s + (j * j)
  done;
  !s

let test_baseline_run () =
  let binary = Minic.Codegen.compile (sum_squares_prog 100) in
  let { Redfat.run; verdict; _ } = Redfat.run binary Baseline in
  (match verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "baseline: %s" (Redfat.verdict_to_string v));
  Alcotest.(check (list int)) "output" [ expected_sum_squares 100 ] run.outputs

let run_all_levels prog =
  let binary = Minic.Codegen.compile prog in
  let { Redfat.run = base; verdict = bv; _ } = Redfat.run binary Baseline in
  (match bv with
   | Redfat.Finished _ -> ()
   | v -> Alcotest.failf "baseline: %s" (Redfat.verdict_to_string v));
  let levels =
    [
      ("unoptimized", Rewriter.Rewrite.unoptimized);
      ("+elim", Rewriter.Rewrite.with_elim);
      ("+batch", Rewriter.Rewrite.with_batch);
      ("+merge", Rewriter.Rewrite.optimized);
    ]
  in
  List.map
    (fun (name, opts) ->
      let hard = Redfat.harden ~opts binary in
      let hr = Redfat.run hard.binary libredfat in
      (match hr.verdict with
       | Redfat.Finished _ -> ()
       | v -> Alcotest.failf "%s: %s" name (Redfat.verdict_to_string v));
      Alcotest.(check (list int))
        (name ^ " output preserved") base.outputs hr.run.outputs;
      (name, base.cycles, hr.run.cycles))
    levels

let test_semantic_preservation () =
  let results = run_all_levels (sum_squares_prog 200) in
  (* every level must cost more than baseline, and each optimization
     must not be slower than the previous level *)
  List.iter
    (fun (name, base, hard) ->
      if hard <= base then
        Alcotest.failf "%s: hardened %d <= baseline %d" name hard base)
    results;
  let overheads = List.map (fun (_, b, h) -> float_of_int h /. float_of_int b) results in
  (match overheads with
   | [ unopt; elim; batch; merge ] ->
     if not (unopt >= elim && elim >= batch && batch >= merge) then
       Alcotest.failf "optimizations not monotone: %.2f %.2f %.2f %.2f" unopt
         elim batch merge
   | _ -> assert false)

(* a non-incremental overflow: a[input] = v with attacker input *)
let oob_write_prog =
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          let_ "a" (alloc_elems (i 8));
          let_ "b" (alloc_elems (i 8));
          set (v "b") (i 0) (i 7777);
          let_ "k" Input;
          set (v "a") (v "k") (i 666);
          print_ (idx (v "b") (i 0));
          return_ (i 0);
        ];
    ]

let test_detect_non_incremental_overflow () =
  let binary = Minic.Codegen.compile oob_write_prog in
  (* benign input runs fine *)
  let hard = Redfat.harden binary in
  let ok = Redfat.run hard.binary ~inputs:[ 3 ] libredfat in
  (match ok.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "benign: %s" (Redfat.verdict_to_string v));
  (* attack input skipping far past the redzone *)
  let bad = Redfat.run hard.binary ~inputs:[ 100 ] libredfat in
  (match bad.verdict with
   | Redfat.Detected e ->
     Alcotest.(check string) "kind" "out-of-bounds (upper)"
       (Redfat_rt.Runtime.kind_name e.kind)
   | v -> Alcotest.failf "attack not stopped: %s" (Redfat.verdict_to_string v))

let test_detect_use_after_free () =
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 4));
            set (v "a") (i 0) (i 1);
            free_ (v "a");
            set (v "a") (i 0) (i 2); (* use after free *)
            return_ (i 0);
          ];
      ]
  in
  let binary = Minic.Codegen.compile prog in
  let hard = Redfat.harden binary in
  let hr = Redfat.run hard.binary libredfat in
  match hr.verdict with
  | Redfat.Detected e ->
    Alcotest.(check string) "kind" "use-after-free"
      (Redfat_rt.Runtime.kind_name e.kind)
  | v -> Alcotest.failf "UaF not detected: %s" (Redfat.verdict_to_string v)

let test_memcheck_runs () =
  let binary = Minic.Codegen.compile (sum_squares_prog 100) in
  let { Redfat.run; verdict; state = mc } = Redfat.run binary Memcheck in
  (match verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "memcheck: %s" (Redfat.verdict_to_string v));
  Alcotest.(check (list int)) "output" [ expected_sum_squares 100 ] run.outputs;
  Alcotest.(check int) "no errors" 0 (List.length (Baselines.Memcheck.errors mc))

let test_memcheck_detects_incremental_overflow () =
  (* a[8] on an 8-element array lands in the redzone *)
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            set (v "a") (i 8) (i 1);
            return_ (i 0);
          ];
      ]
  in
  let binary = Minic.Codegen.compile prog in
  let mc = (Redfat.run binary Memcheck).state in
  Alcotest.(check bool) "memcheck flags redzone hit" true
    (List.length (Baselines.Memcheck.errors mc) > 0)

let tests =
  [
    Alcotest.test_case "baseline run" `Quick test_baseline_run;
    Alcotest.test_case "semantics preserved at all levels" `Quick
      test_semantic_preservation;
    Alcotest.test_case "non-incremental overflow detected" `Quick
      test_detect_non_incremental_overflow;
    Alcotest.test_case "use-after-free detected" `Quick
      test_detect_use_after_free;
    Alcotest.test_case "memcheck clean run" `Quick test_memcheck_runs;
    Alcotest.test_case "memcheck detects incremental overflow" `Quick
      test_memcheck_detects_incremental_overflow;
  ]
