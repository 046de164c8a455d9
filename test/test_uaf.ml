(* The CWE-416 use-after-free extension suite. *)

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let test_suite_shape () =
  Alcotest.(check int) "32 cases" 32 (List.length Workloads.Uaf.all);
  let ids = List.map (fun (c : Workloads.Uaf.case) -> c.id) Workloads.Uaf.all in
  Alcotest.(check int) "distinct ids" 32
    (List.length (List.sort_uniq compare ids))

let test_all_cases () =
  List.iter
    (fun (c : Workloads.Uaf.case) ->
      let bin = Workloads.Uaf.binary c in
      let hard = Redfat.harden bin in
      let b =
        Redfat.run ~inputs:Workloads.Uaf.benign_inputs hard.binary libredfat
      in
      (match b.verdict with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "%s benign: %s" c.id (Redfat.verdict_to_string v));
      let a =
        Redfat.run ~inputs:Workloads.Uaf.attack_inputs hard.binary libredfat
      in
      match a.verdict with
      | Redfat.Detected e ->
        Alcotest.(check string) (c.id ^ " kind") "use-after-free"
          (Redfat_rt.Runtime.kind_name e.kind)
      | v -> Alcotest.failf "%s attack: %s" c.id (Redfat.verdict_to_string v))
    Workloads.Uaf.all

let test_memcheck_also_detects () =
  (* temporal errors are redzone-detectable: the comparator agrees *)
  List.iter
    (fun (c : Workloads.Uaf.case) ->
      if c.variant = 0 then begin
        let bin = Workloads.Uaf.binary c in
        let inputs = Workloads.Uaf.attack_inputs in
        let m = (Redfat.run ~inputs bin Memcheck).state in
        Alcotest.(check bool) (c.id ^ " memcheck") true
          (Baselines.Memcheck.errors m <> [])
      end)
    Workloads.Uaf.all

let test_reuse_limitation () =
  (* the honest limitation: slot reuse without quarantine ends the
     detection window for RedFat but not for the quarantining
     comparator *)
  let bin = Minic.Codegen.compile Workloads.Uaf.reuse_case in
  let hard = Redfat.harden bin in
  let r = Redfat.run hard.binary libredfat in
  (match r.verdict with
   | Redfat.Finished 0 ->
     (* the dangling write really did corrupt the new object *)
     Alcotest.(check (list int)) "silent corruption" [ 7 ] r.run.outputs
   | v -> Alcotest.failf "expected a miss, got %s" (Redfat.verdict_to_string v));
  let m = (Redfat.run bin Memcheck).state in
  Alcotest.(check bool) "memcheck quarantine catches it" true
    (Baselines.Memcheck.errors m <> [])

let tests =
  [
    Alcotest.test_case "suite shape" `Quick test_suite_shape;
    Alcotest.test_case "all 32 cases" `Slow test_all_cases;
    Alcotest.test_case "memcheck agrees" `Quick test_memcheck_also_detects;
    Alcotest.test_case "slot-reuse limitation" `Quick test_reuse_limitation;
  ]
