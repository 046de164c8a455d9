(* CVE walkthrough: paper Figure 1 / Example 1 (CVE-2012-4295).

   Run with:  dune exec examples/cve_demo.exe

   wireshark's channelised_fill_sdh_g707_format() writes
   in_fmt->m_vc_index_array[speed-1] = 0 with an attacker-controlled
   'speed'.  A 16-byte redzone catches speed up to ~20; speed=200 skips
   the redzone entirely and lands in an adjacent heap object, which is
   exactly the class of error (Redzone)-only tools miss and the
   (LowFat) component of the complementary check catches. *)

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let () =
  print_endline "== CVE-2012-4295 (wireshark) ==\n";
  let case = Workloads.Cve.wireshark in
  let binary = Workloads.Cve.binary case in

  (* show the vulnerable write in the stripped binary: the last indexed
     byte store of fill() is m_vc_index_array[speed-1] = 0 *)
  print_endline "the compiled fill() function contains the vulnerable store:";
  let text = Binfmt.Relf.text_exn binary in
  let s = X64.Disasm.sweep_stream ~addr:text.addr text.bytes in
  let stores =
    List.filter_map
      (fun k ->
        match s.instrs.(k) with
        | X64.Isa.Store (X64.Isa.W1, m, _) as instr
          when m.idx <> None && m.disp = 0 ->
          Some (s.addrs.(k), instr)
        | _ -> None)
      (List.init (X64.Disasm.length s) Fun.id)
  in
  let addr, instr = List.nth stores (List.length stores - 1) in
  Printf.printf "  %#x: %s    <- m_vc_index_array[speed-1] = 0\n" addr
    (X64.Disasm.to_string instr);

  (* sweep 'speed' and record what each tool does *)
  let hard = Redfat.harden binary in
  Printf.printf "\n%8s  %-22s %-12s %s\n" "speed" "RedFat" "Memcheck"
    "note";
  List.iter
    (fun speed ->
      let inputs = [ 4; speed ] in
      let hr = Redfat.run ~inputs hard.binary libredfat in
      let rf =
        match hr.verdict with
        | Redfat.Detected e -> Redfat_rt.Runtime.kind_name e.kind
        | Redfat.Finished _ -> "ok"
        | Redfat.Fault m -> m
      in
      let mc = (Redfat.run ~inputs binary Memcheck).state in
      let mcs =
        if Baselines.Memcheck.errors mc <> [] then "detected" else "ok"
      in
      let note =
        if speed <= 5 then "in bounds"
        else if speed <= 11 then
          "sub-object overflow inside the struct: invisible at binary level"
        else if speed <= 40 then "reaches poisoned memory: both tools see it"
        else "skips the redzone: only (LowFat) sees it"
      in
      Printf.printf "%8d  %-22s %-12s %s\n" speed rf mcs note)
    [ 1; 5; 8; 15; 200 ];

  print_endline
    "\nspeed=200 is Example 1 of the paper: Memcheck's 16-byte redzone is\n\
     skipped, so the write silently corrupts an adjacent heap object, while\n\
     RedFat's pointer-arithmetic check flags it regardless of the offset."
