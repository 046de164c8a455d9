let () =
  Alcotest.run "redfat"
    [
      ("x64", Test_x64.tests);
      ("vm", Test_vm.tests);
      ("vm-golden", Test_vm_golden.tests);
      ("digest-golden", Test_digest_golden.tests);
      ("serve-golden", Test_serve_golden.tests);
      ("binfmt", Test_binfmt.tests);
      ("lowfat", Test_lowfat.tests);
      ("runtime", Test_runtime.tests);
      ("minic", Test_minic.tests);
      ("parser", Test_parser.tests);
      ("rewriter", Test_rewriter.tests);
      ("dataflow", Test_dataflow.tests);
      ("hoist", Test_hoist.tests);
      ("shard", Test_shard.tests);
      ("shared-objects", Test_shared_objects.tests);
      ("profile", Test_profile.tests);
      ("fuzzer", Test_fuzz.profile_tests);
      ("fuzz", Test_fuzz.tests);
      ("e9afl", Test_e9afl.tests);
      ("uaf", Test_uaf.tests);
      ("backend", Test_backend.tests);
      ("cli", Test_cli.tests);
      ("memcheck", Test_memcheck.tests);
      ("workloads", Test_workloads.tests);
      ("properties", Test_properties.tests);
      ("robustness", Test_robustness.tests);
      ("details", Test_details.tests);
      ("asm-properties", Test_asm_properties.tests);
      ("pipeline", Test_pipeline.tests);
      ("engine", Test_engine.tests);
      ("obs", Test_obs.tests);
      ("fault", Test_fault.tests);
      ("serve", Test_serve.tests);
      ("bench-diff", Test_bench_diff.tests);
    ]
