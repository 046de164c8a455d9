(* Probe instrumentation through the shared patch layer, and E9AFL-style
   edge coverage. *)

module Patch = Rewriter.Patch

(* a program with branch-only behaviour differences: no heap access in
   the gated branches, so redfat site coverage cannot distinguish them
   but edge coverage can *)
let binary = Minic.Codegen.compile Digest_golden.branchy

let run_probed (b : Binfmt.Relf.t) inputs =
  let cpu, (), vmrt = Redfat.load ~inputs (Redfat.image b) Baseline in
  let (_ : int) = Vm.Cpu.run cpu vmrt ~entry:b.entry in
  Vm.Cpu.outputs cpu

let test_generic_instrumentation_preserves () =
  (* a probe at EVERY instruction: outputs unchanged.  Every instruction
     is then a patch start, so none can be evicted; the second build
     patches every instruction no earlier patch displaced, so between
     them the probe client takes all three tactics the hardening
     client uses *)
  let every, every_bin = Digest_golden.probe_build ~evict:false binary in
  let greedy, greedy_bin = Digest_golden.probe_build ~evict:true binary in
  Alcotest.(check bool) "many probes" true
    (Patch.jump_patches every + Patch.trap_patches every > 20);
  Alcotest.(check int) "no eviction past a patch start" 0
    (Patch.evictions every);
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ ": jump patch") true
        (Patch.jump_patches p > 0);
      Alcotest.(check bool) (name ^ ": trap patch") true
        (Patch.trap_patches p > 0))
    [ ("every", every); ("greedy", greedy) ];
  Alcotest.(check bool) "greedy: eviction" true (Patch.evictions greedy > 0);
  List.iter
    (fun inputs ->
      let base = (Redfat.run ~inputs binary Baseline).run in
      List.iter
        (fun b ->
          Alcotest.(check (list int)) "outputs preserved" base.outputs
            (run_probed b inputs))
        [ every_bin; greedy_bin ])
    [ [ 0 ]; [ 11 ]; [ 101 ]; [ 7 ] ]

let test_block_instrumentation_counts () =
  let t = Fuzz.E9afl.instrument binary in
  let probes =
    match Binfmt.Relf.find_section t.binary ".e9tool" with
    | None -> 0
    | Some s ->
      Array.fold_left
        (fun n i -> match i with X64.Isa.Probe _ -> n + 1 | _ -> n)
        0 (X64.Disasm.sweep_stream ~addr:s.addr s.bytes).instrs
  in
  Alcotest.(check bool) "several blocks" true (t.blocks >= 6);
  Alcotest.(check int) "one probe per block" t.blocks probes

let test_edge_map_distinguishes_paths () =
  let t = Fuzz.E9afl.instrument binary in
  let edges inputs =
    let r = Fuzz.E9afl.run t ~inputs () in
    Alcotest.(check bool) "ran" true r.verdict_ok;
    Hashtbl.fold (fun e _ acc -> e :: acc) r.edges [] |> List.sort compare
  in
  let a = edges [ 0 ] and b = edges [ 11 ] and c = edges [ 101 ] in
  Alcotest.(check bool) "different paths, different edges" true
    (a <> b && b <> c && a <> c);
  Alcotest.(check (list int)) "same input, same edges" a (edges [ 0 ])

let test_edge_fuzzer_explores_branches () =
  (* edge-guided fuzzing discovers the branch structure even though the
     branches contain no heap accesses: a campaign on the probe build
     is guided by the probe-edge map *)
  let probed = (Fuzz.E9afl.instrument binary).binary in
  let eng = Engine.Pipeline.create ~jobs:1 ~cache:false () in
  Fun.protect ~finally:(fun () -> Engine.Pipeline.close eng) @@ fun () ->
  let campaign budget =
    Fuzz.Campaign.run_exec eng
      ~config:{ Fuzz.Campaign.default_config with budget; seed = 5 }
      ~target:"branchy" ~seeds:[ [ 0 ] ] probed
  in
  (* the budget counts the seed *)
  let seed_only = campaign 1 and fuzzed = campaign 301 in
  Alcotest.(check bool)
    (Printf.sprintf "edges grew (%d -> %d)" seed_only.r_cov_edges
       fuzzed.r_cov_edges)
    true
    (fuzzed.r_cov_edges > seed_only.r_cov_edges);
  Alcotest.(check bool) "corpus has several inputs" true
    (fuzzed.r_corpus >= 3);
  Alcotest.(check (list string)) "no bugs on benign branches" []
    (List.map (fun (b : Fuzz.Campaign.bug) -> b.b_code) fuzzed.r_bugs)

let test_generic_on_spec_binary () =
  (* block coverage of a real benchmark binary round-trips *)
  let b = Workloads.Spec.find "astar" in
  let bin = Workloads.Spec.binary b in
  let t = Fuzz.E9afl.instrument bin in
  let r = Fuzz.E9afl.run t ~inputs:(Workloads.Spec.train_inputs b) () in
  Alcotest.(check bool) "ran" true r.verdict_ok;
  let inputs = Workloads.Spec.train_inputs b in
  let base = (Redfat.run ~inputs bin Baseline).run in
  Alcotest.(check (list int)) "outputs preserved" base.outputs r.outputs;
  Alcotest.(check bool) "edges recorded" true (Hashtbl.length r.edges > 5)

let tests =
  [
    Alcotest.test_case "generic instrumentation preserves" `Quick
      test_generic_instrumentation_preserves;
    Alcotest.test_case "block instrumentation counts" `Quick
      test_block_instrumentation_counts;
    Alcotest.test_case "edge map distinguishes paths" `Quick
      test_edge_map_distinguishes_paths;
    Alcotest.test_case "edge fuzzer explores branches" `Quick
      test_edge_fuzzer_explores_branches;
    Alcotest.test_case "generic on spec binary" `Quick
      test_generic_on_spec_binary;
  ]
