(* Coverage-guided profiling (paper §5's AFL pointer).

   Run with:  dune exec examples/fuzzing_profiler.exe

   The allow-list is only as good as the test suite that produced it:
   a site never executed during profiling falls back to (Redzone)-only
   checking in production, losing the non-incremental protection.  This
   example profiles a branchy program twice — once with a single naive
   seed, once with the fuzzer growing the suite — and compares the
   resulting production coverage. *)

open Minic.Build

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

(* input-dependent phases, like a real program's modes *)
let program =
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          let_ "a" (alloc_elems (i 32));
          let_ "mode" Input;
          let_ "x" Input;
          (* always-on phase *)
          for_ "j" (i 0) (i 8) [ set (v "a") (v "j") (v "j") ];
          (* phases gated on the inputs *)
          if_ (v "mode" >: i 0)
            [ for_ "j" (i 8) (i 16) [ set (v "a") (v "j") (v "j" *: i 2) ] ]
            [];
          if_ (v "mode" >: i 3)
            [ for_ "j" (i 16) (i 24) [ set (v "a") (v "j") (v "j" *: i 3) ] ]
            [];
          if_
            (v "x" &: i 1 =: i 1)
            [ for_ "j" (i 24) (i 32) [ set (v "a") (v "j") (v "j" *: i 5) ] ]
            [];
          let_ "s" (i 0);
          for_ "j" (i 0) (i 32) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
          print_ (v "s");
          free_ (v "a");
          return_ (i 0);
        ];
    ]

let () =
  print_endline "== coverage-guided profiling ==\n";
  let binary = Minic.Codegen.compile program in

  (* naive: profile with one seed input *)
  let eng = Engine.Pipeline.create ~jobs:1 ~cache:false () in
  let naive_allow =
    Engine.Pipeline.profile eng ~test_suite:[ [ 0; 0 ] ] binary
  in
  Printf.printf "naive test suite (one input): %d allow-listed sites\n"
    (List.length naive_allow);

  (* fuzzed: grow the suite first (the budget counts the seed) *)
  let config = { Fuzz.Campaign.default_config with budget = 401; seed = 11 } in
  let report, suite =
    Fuzz.Campaign.run_profile eng ~config ~target:"gated" ~seeds:[ [ 0; 0 ] ]
      binary
  in
  let total_sites =
    (Redfat.Rewrite.rewrite Redfat.Rewrite.profiling_build binary).stats
      .checks_emitted
  in
  Printf.printf
    "fuzzer: %d executions, corpus of %d inputs, %d/%d sites reached\n"
    report.r_execs (List.length suite) report.r_cov_sites total_sites;
  let fuzzed_allow = Engine.Pipeline.profile eng ~test_suite:suite binary in
  Engine.Pipeline.close eng;
  Printf.printf "fuzzed test suite: %d allow-listed sites\n"
    (List.length fuzzed_allow);

  (* the production coverage difference, measured on a ref-like run *)
  let measure allow =
    let hard =
      Redfat.harden ~opts:(Redfat.Rewrite.production ~allowlist:allow) binary
    in
    let hr = Redfat.run ~inputs:[ 5; 7 ] hard.binary libredfat in
    Redfat.Runtime.coverage_percent hr.state
  in
  Printf.printf
    "\nproduction coverage on a full-featured input (mode=5, x=7):\n";
  Printf.printf "  allow-list from the naive suite:  %.1f%% full checking\n"
    (measure naive_allow);
  Printf.printf "  allow-list from the fuzzed suite: %.1f%% full checking\n"
    (measure fuzzed_allow);
  print_endline
    "\nevery site the fuzzer reached keeps the stronger (Redzone)+(LowFat)\n\
     protection in production; unreached sites degrade to (Redzone)-only."
