(* System-level properties over randomly generated MiniC programs
   (Workloads.Synth generates memory-safe programs by construction). *)

module Rw = Redfat.Rewrite
module Rt = Redfat_rt.Runtime

let libredfat = Redfat.Hardened Rt.default_options

let compile_seed seed =
  Minic.Codegen.compile (Workloads.Synth.program ~seed ())

let baseline_outputs bin =
  let { Redfat.run = r; verdict = v; _ } = Redfat.run bin Baseline in
  match v with
  | Redfat.Finished _ -> r.outputs
  | v -> failwith (Redfat.verdict_to_string v)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100000)

(* 1. rewriting never changes program behaviour, at any level *)
let prop_semantic_preservation =
  QCheck.Test.make ~count:60 ~name:"rewriting preserves semantics (all levels)"
    seed_gen
    (fun seed ->
      let bin = compile_seed seed in
      let base = baseline_outputs bin in
      List.for_all
        (fun opts ->
          let hard = Redfat.harden ~opts bin in
          let hr = Redfat.run hard.binary libredfat in
          match hr.verdict with
          | Redfat.Finished _ -> hr.run.outputs = base
          | _ -> false)
        [ Rw.unoptimized; Rw.with_elim; Rw.with_batch; Rw.optimized;
          { Rw.optimized with instrument_reads = false } ])

(* 2. no false positives on idiomatic code, even with naive full
      checking and no allow-list *)
let prop_no_false_positives =
  QCheck.Test.make ~count:60 ~name:"no false positives on idiomatic programs"
    seed_gen
    (fun seed ->
      let bin = compile_seed seed in
      let hard = Redfat.harden bin in
      let hr =
        Redfat.run hard.binary (Hardened { Rt.default_options with mode = Log })
      in
      Rt.errors hr.state = [])

(* 3. profiling allow-lists every executed site of an idiomatic program *)
let prop_profile_allows_everything_idiomatic =
  QCheck.Test.make ~count:40
    ~name:"profiling allow-lists all idiomatic executed sites" seed_gen
    (fun seed ->
      let bin = compile_seed seed in
      let prof = Rw.rewrite Rw.profiling_build bin in
      let hr = Redfat.run prof.binary Profiling in
      Rt.lowfat_failing_sites hr.state = [])

(* 4. memcheck agrees with the baseline on outputs and reports nothing *)
let prop_memcheck_clean =
  QCheck.Test.make ~count:40 ~name:"memcheck clean on idiomatic programs"
    seed_gen
    (fun seed ->
      let bin = compile_seed seed in
      let base = baseline_outputs bin in
      let { Redfat.run = r; verdict = v; state = mc } =
        Redfat.run bin Memcheck
      in
      match v with
      | Redfat.Finished _ ->
        r.outputs = base && Baselines.Memcheck.errors mc = []
      | _ -> false)

(* 5. the hardened run costs more cycles than baseline but executes
      the same side effects; optimization levels are monotone *)
let prop_cost_monotone =
  QCheck.Test.make ~count:30 ~name:"optimization levels are cost-monotone"
    seed_gen
    (fun seed ->
      let bin = compile_seed seed in
      let rb = (Redfat.run bin Baseline).run in
      let cycles opts =
        let hard = Redfat.harden ~opts bin in
        let hr = Redfat.run hard.binary libredfat in
        hr.run.cycles
      in
      let unopt = cycles Rw.unoptimized in
      let elim = cycles Rw.with_elim in
      let batch = cycles Rw.with_batch in
      let merge = cycles Rw.optimized in
      rb.cycles <= merge && merge <= batch && batch <= elim && elim <= unopt)

(* 6. a random in-bounds write turned out-of-bounds by a skip offset is
      always detected by the full check *)
let prop_skip_always_detected =
  let gen =
    QCheck.Gen.(
      let* elems = int_range 1 32 in
      let* skip = int_range 0 64 in
      return (elems, skip))
  in
  QCheck.Test.make ~count:200 ~name:"full check detects any skip distance"
    (QCheck.make gen)
    (fun (elems, skip) ->
      let open Minic.Build in
      let prog =
        Minic.Ast.program
          [
            Minic.Ast.func ~name:"main"
              [
                let_ "a" (alloc_elems (i elems));
                let_ "n" (alloc_elems (i elems)); (* neighbour *)
                let_ "k" Input;
                set (v "a") (v "k") (i 1);
                free_ (v "a");
                free_ (v "n");
                return_ (i 0);
              ];
          ]
      in
      let bin = Minic.Codegen.compile prog in
      let hard = Redfat.harden bin in
      let idx = elems + skip in
      let hr = Redfat.run ~inputs:[ idx ] hard.binary libredfat in
      match hr.verdict with
      | Redfat.Detected _ -> true
      | Redfat.Finished _ -> false
      | Redfat.Fault _ -> false)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_semantic_preservation;
    QCheck_alcotest.to_alcotest prop_no_false_positives;
    QCheck_alcotest.to_alcotest prop_profile_allows_everything_idiomatic;
    QCheck_alcotest.to_alcotest prop_memcheck_clean;
    QCheck_alcotest.to_alcotest prop_cost_monotone;
    QCheck_alcotest.to_alcotest prop_skip_always_detected;
  ]
