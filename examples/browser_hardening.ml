(* Hardening a browser-scale binary (paper §7.3).

   Run with:  dune exec examples/browser_hardening.exe

   Builds the Chrome-scale binary (>100k instructions, hundreds of
   functions), hardens all write operations — the configuration the
   paper uses for Google Chrome — and runs browser-like workloads
   through it, reporting the rewriter's scaling statistics and the
   runtime overhead, Kraken-style. *)

let () =
  print_endline "== browser-scale hardening ==\n";
  let binary = Workloads.Chrome.binary () in
  let text = Binfmt.Relf.text_exn binary in
  Printf.printf "input: %d KiB of stripped code, %d instructions\n"
    (String.length text.bytes / 1024)
    (X64.Disasm.length (X64.Disasm.sweep_stream ~addr:text.addr text.bytes));

  let opts =
    { Redfat.Rewrite.optimized with instrument_reads = false (* writes only *) }
  in
  let t0 = Sys.time () in
  let hard = Redfat.harden ~opts binary in
  Printf.printf "rewrite took %.3fs\n\n" (Sys.time () -. t0);
  Format.printf "%a@." Redfat.Rewrite.pp_stats hard.stats;

  (* every patch tactic should have been exercised at this scale *)
  assert (hard.stats.jump_patches > 0);
  assert (hard.stats.evictions > 0);

  let rt_opts =
    { Redfat_rt.Runtime.default_options with
      check_reads = false; size_harden = false }
  in
  print_endline "\nrunning browser workloads through the hardened binary:";
  List.iter
    (fun (name, inputs) ->
      let base = (Redfat.run ~inputs binary Baseline).run in
      let hr = Redfat.run ~inputs hard.binary (Hardened rt_opts) in
      Printf.printf "  %-8s %-22s overhead %.2fx\n" name
        (Redfat.verdict_to_string hr.verdict)
        (float_of_int hr.run.cycles /. float_of_int base.cycles))
    Workloads.Chrome.workloads;

  print_endline "\nKraken sub-benchmarks (hardened separately, like Fig. 8):";
  List.iter
    (fun (b : Workloads.Kraken.bench) ->
      let bin = Workloads.Kraken.binary b in
      let inputs = Workloads.Kraken.inputs b in
      let base = (Redfat.run ~inputs bin Baseline).run in
      let h = Redfat.harden ~opts bin in
      let hr = Redfat.run ~inputs h.binary (Hardened rt_opts) in
      Printf.printf "  %-26s %.0f%%\n" b.name
        (100. *. float_of_int hr.run.cycles /. float_of_int base.cycles))
    [ Workloads.Kraken.find "ai-astar"; Workloads.Kraken.find "crypto-aes";
      Workloads.Kraken.find "imaging-gaussian-blur" ]
