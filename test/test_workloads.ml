(* Workload suites: semantic sanity of every benchmark binary, plus
   spot checks of the detection scenarios (the full sweeps run in
   bench/main.exe). *)

module Rt = Redfat_rt.Runtime
module Pl = Engine.Pipeline

let libredfat = Redfat.Hardened Rt.default_options

let log_opts = { Rt.default_options with mode = Rt.Log }
let eng = Pl.create ~cache:false ()

(* every SPEC stand-in: baseline and production-hardened runs agree on
   the train workload, and the hardened ref run completes *)
let test_spec_semantics () =
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let bin = Workloads.Spec.binary b in
      let train = Workloads.Spec.train_inputs b in
      let { Redfat.run = base; verdict = bv; _ } =
        Redfat.run ~inputs:train bin Baseline
      in
      (match bv with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "%s baseline: %s" b.name
                (Redfat.verdict_to_string v));
      let hard = (Pl.workflow eng ~train:[ train ] ~inputs:train bin).hard in
      let hr = Redfat.run ~inputs:train hard.binary (Hardened log_opts) in
      (match hr.verdict with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "%s hardened: %s" b.name
                (Redfat.verdict_to_string v));
      Alcotest.(check (list int))
        (b.name ^ " outputs") base.outputs hr.run.outputs;
      (* no false positives in the production configuration, beyond the
         benchmark's known real bugs *)
      let nonbug =
        List.length (Rt.errors hr.state) - List.length b.bugs
      in
      if nonbug > 0 then
        Alcotest.failf "%s: %d unexpected production errors" b.name nonbug)
    Workloads.Spec.all

let test_spec_census_is_paper () =
  (* the static per-benchmark census data matches the paper's §7.1 *)
  let fp name = (Workloads.Spec.find name).fp_sites in
  Alcotest.(check int) "gcc" 14 (fp "gcc");
  Alcotest.(check int) "GemsFDTD" 32 (fp "GemsFDTD");
  Alcotest.(check int) "wrf" 26 (fp "wrf");
  Alcotest.(check int) "calculix" 2 (fp "calculix");
  Alcotest.(check int) "total benchmarks" 29 (List.length Workloads.Spec.all);
  Alcotest.(check int) "calculix bugs" 4
    (List.length (Workloads.Spec.find "calculix").bugs)

let test_cve_cases () =
  Alcotest.(check int) "four CVEs" 4 (List.length Workloads.Cve.all);
  List.iter
    (fun (c : Workloads.Cve.case) ->
      let bin = Workloads.Cve.binary c in
      let hard = Redfat.harden bin in
      (* benign: identical output to baseline *)
      let base = (Redfat.run ~inputs:c.benign_inputs bin Baseline).run in
      let hr = Redfat.run ~inputs:c.benign_inputs hard.binary libredfat in
      Alcotest.(check (list int)) (c.name ^ " benign") base.outputs
        hr.run.outputs;
      (* attack: detected *)
      let hr = Redfat.run ~inputs:c.attack_inputs hard.binary libredfat in
      (match hr.verdict with
       | Redfat.Detected _ -> ()
       | v -> Alcotest.failf "%s attack: %s" c.name
                (Redfat.verdict_to_string v)))
    Workloads.Cve.all

let test_juliet_generator_shape () =
  let cases = Workloads.Juliet.all in
  Alcotest.(check int) "480 cases" 480 (List.length cases);
  let ids = List.map (fun (c : Workloads.Juliet.case) -> c.id) cases in
  Alcotest.(check int) "distinct ids" 480
    (List.length (List.sort_uniq compare ids));
  let patterns =
    List.sort_uniq compare
      (List.map (fun (c : Workloads.Juliet.case) -> c.pattern) cases)
  in
  Alcotest.(check int) "15 patterns" 15 (List.length patterns)

let test_juliet_sample () =
  (* one case per pattern: benign clean, attack detected, memcheck miss *)
  List.iter
    (fun (c : Workloads.Juliet.case) ->
      if c.variant = 0 then begin
        let bin = Workloads.Juliet.binary c in
        let hard = Redfat.harden bin in
        let b = Redfat.run ~inputs:c.benign_inputs hard.binary libredfat in
        (match b.verdict with
         | Redfat.Finished 0 -> ()
         | v -> Alcotest.failf "%s benign: %s" c.id
                  (Redfat.verdict_to_string v));
        let a = Redfat.run ~inputs:c.attack_inputs hard.binary libredfat in
        (match a.verdict with
         | Redfat.Detected _ -> ()
         | v -> Alcotest.failf "%s attack: %s" c.id
                  (Redfat.verdict_to_string v));
        let mc = (Redfat.run ~inputs:c.attack_inputs bin Memcheck).state in
        Alcotest.(check int) (c.id ^ " memcheck misses") 0
          (List.length (Baselines.Memcheck.errors mc))
      end)
    Workloads.Juliet.all

let test_kraken_write_hardening () =
  Alcotest.(check int) "14 benchmarks" 14 (List.length Workloads.Kraken.all);
  List.iter
    (fun (b : Workloads.Kraken.bench) ->
      let bin = Workloads.Kraken.binary b in
      let inputs = [ 2 ] (* tiny for the test *) in
      let base = (Redfat.run ~inputs bin Baseline).run in
      let hard =
        Redfat.harden
          ~opts:{ Redfat.Rewrite.optimized with instrument_reads = false }
          bin
      in
      let hr =
        Redfat.run ~inputs hard.binary
          (Hardened { Rt.default_options with check_reads = false })
      in
      (match hr.verdict with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "%s: %s" b.name (Redfat.verdict_to_string v));
      Alcotest.(check (list int)) (b.name ^ " output") base.outputs
        hr.run.outputs)
    Workloads.Kraken.all

let test_chrome_binary_scales () =
  let bin = Workloads.Chrome.binary ~copies:6 () in
  let hard =
    Redfat.harden
      ~opts:{ Redfat.Rewrite.optimized with instrument_reads = false }
      bin
  in
  Alcotest.(check bool) "thousands of instructions" true
    (hard.stats.instrs_total > 10000);
  (* the hardened big binary still runs every dispatcher workload *)
  List.iter
    (fun (_, inputs) ->
      let base = (Redfat.run ~inputs bin Baseline).run in
      let hr =
        Redfat.run ~inputs hard.binary
          (Hardened { Rt.default_options with check_reads = false })
      in
      (match hr.verdict with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "chrome: %s" (Redfat.verdict_to_string v));
      Alcotest.(check (list int)) "output" base.outputs hr.run.outputs)
    Workloads.Chrome.workloads

let test_synth_deterministic () =
  let p1 = Workloads.Synth.program ~seed:42 () in
  let p2 = Workloads.Synth.program ~seed:42 () in
  let b1 = Minic.Codegen.compile p1 and b2 = Minic.Codegen.compile p2 in
  Alcotest.(check string) "same seed, same binary"
    (Binfmt.Relf.serialize b1) (Binfmt.Relf.serialize b2);
  let p3 = Workloads.Synth.program ~seed:43 () in
  let b3 = Minic.Codegen.compile p3 in
  Alcotest.(check bool) "different seed, different binary" true
    (Binfmt.Relf.serialize b1 <> Binfmt.Relf.serialize b3)

let tests =
  [
    Alcotest.test_case "spec semantics (29 benchmarks)" `Slow
      test_spec_semantics;
    Alcotest.test_case "spec census data" `Quick test_spec_census_is_paper;
    Alcotest.test_case "cve cases" `Quick test_cve_cases;
    Alcotest.test_case "juliet generator shape" `Quick
      test_juliet_generator_shape;
    Alcotest.test_case "juliet sample (15 patterns)" `Slow test_juliet_sample;
    Alcotest.test_case "kraken write hardening" `Slow
      test_kraken_write_hardening;
    Alcotest.test_case "chrome-scale binary" `Slow test_chrome_binary_scales;
    Alcotest.test_case "synth determinism" `Quick test_synth_deterministic;
  ]
