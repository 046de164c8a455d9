(* CLI integration: drive the redfat executable end to end through
   temp files, checking exit codes and key output lines. *)

let cli = "../bin/redfat_cli.exe"

let available = Sys.file_exists cli

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let run_cli args =
  let out = tmp "redfat_cli_out.txt" in
  let cmd = Printf.sprintf "%s %s > %s 2>&1" cli args out in
  let code = Sys.command cmd in
  let ic = open_in out in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (code, contents)

let contains hay needle =
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0

let skip_unless_available () =
  if not available then
    Alcotest.skip ()

let test_full_workflow () =
  skip_unless_available ();
  let relf = tmp "cli_t.relf" in
  let hard = tmp "cli_t.hard.relf" in
  let allow = tmp "cli_t.allow.lst" in
  (* workload -> profile -> harden -> run *)
  let c, _ = run_cli (Printf.sprintf "workload spec:mcf -o %s" relf) in
  Alcotest.(check int) "workload" 0 c;
  let c, out = run_cli (Printf.sprintf "profile %s --inputs 0,4 -o %s" relf allow) in
  Alcotest.(check int) "profile" 0 c;
  Alcotest.(check bool) "allow-list written" true (contains out "allow-listed");
  let c, _ =
    run_cli (Printf.sprintf "harden %s --allowlist %s -o %s" relf allow hard)
  in
  Alcotest.(check int) "harden" 0 c;
  let c, out = run_cli (Printf.sprintf "run %s --inputs 1,18 --env redfat" hard) in
  Alcotest.(check int) "run" 0 c;
  Alcotest.(check bool) "finished" true (contains out "finished (exit 0)");
  Alcotest.(check bool) "coverage reported" true (contains out "coverage")

let test_compile_and_detect () =
  skip_unless_available ();
  let src = tmp "cli_v.mc" in
  let oc = open_out src in
  output_string oc
    "fn main() { var a = alloc(8); var b = alloc(8); b[0] = 7;\n\
     a[input()] = 1; print(b[0]); free(a); free(b); return 0; }\n";
  close_out oc;
  let relf = tmp "cli_v.relf" and hard = tmp "cli_v.hard.relf" in
  let c, _ = run_cli (Printf.sprintf "compile %s -o %s" src relf) in
  Alcotest.(check int) "compile" 0 c;
  let c, _ = run_cli (Printf.sprintf "harden %s -o %s" relf hard) in
  Alcotest.(check int) "harden" 0 c;
  let _, out = run_cli (Printf.sprintf "run %s --inputs 12 --env redfat" hard) in
  Alcotest.(check bool) "detected" true (contains out "DETECTED");
  Alcotest.(check bool) "explained" true (contains out "non-incremental")

(* the baseline and Memcheck environments of [redfat run]: an
   incremental overflow one element past a 4-element array, then a
   read through the freed pointer *)
let test_run_baseline_and_memcheck () =
  skip_unless_available ();
  let src = tmp "cli_m.mc" and relf = tmp "cli_m.relf" in
  let oc = open_out src in
  output_string oc
    "fn main() { var a = alloc(4); a[0] = 5; var i = input(); a[i] = 9;\n\
     print(a[0]); free(a); print(a[input()]); return 0; }\n";
  close_out oc;
  let c, _ = run_cli (Printf.sprintf "compile %s -o %s" src relf) in
  Alcotest.(check int) "compile" 0 c;
  let c, out =
    run_cli (Printf.sprintf "run %s --inputs 4,0 --env baseline" relf)
  in
  Alcotest.(check int) "baseline exit" 0 c;
  Alcotest.(check string) "baseline output"
    "5\n5\n[finished (exit 0); 40 instructions, 99 cycles]\n" out;
  let c, out =
    run_cli (Printf.sprintf "run %s --inputs 4,0 --env memcheck" relf)
  in
  Alcotest.(check int) "memcheck exit" 0 c;
  Alcotest.(check string) "memcheck output"
    "5\n5\n[finished (exit 0); 40 instructions, 581 cycles]\n\
     memcheck: invalid write of size 8 at 0x20000030 (rip 0x40003a)\n\
     memcheck: invalid read of size 8 at 0x20000010 (rip 0x40005a)\n"
    out

let test_compile_error_position () =
  skip_unless_available ();
  let src = tmp "cli_bad.mc" in
  let oc = open_out src in
  output_string oc "fn main() {\n  print(1)\n}\n";
  close_out oc;
  let c, out = run_cli (Printf.sprintf "compile %s -o /dev/null" src) in
  Alcotest.(check bool) "nonzero exit" true (c <> 0);
  Alcotest.(check bool) "line number" true (contains out ":3:")

let test_double_harden_refused () =
  skip_unless_available ();
  let relf = tmp "cli_d.relf" and hard = tmp "cli_d.hard.relf" in
  let c, _ = run_cli (Printf.sprintf "workload cve:wireshark -o %s" relf) in
  Alcotest.(check int) "workload" 0 c;
  let c, _ = run_cli (Printf.sprintf "harden %s -o %s" relf hard) in
  Alcotest.(check int) "harden" 0 c;
  let c, out = run_cli (Printf.sprintf "harden %s -o /dev/null" hard) in
  Alcotest.(check bool) "refused" true (c <> 0);
  Alcotest.(check bool) "message" true (contains out "twice")

(* every command that loads a binary shares the no-code gate *)
let test_no_code_gate () =
  skip_unless_available ();
  List.iter
    (fun cmd ->
      let c, out = run_cli (cmd ^ " corrupt/zero_code.relf") in
      Alcotest.(check int) (cmd ^ " exit") 1 c;
      Alcotest.(check bool) (cmd ^ ": " ^ out) true
        (contains out "fault[parse.nocode]"))
    [ "harden -o /dev/null"; "run"; "disasm"; "verify"; "trace" ]

let test_disasm_and_trace () =
  skip_unless_available ();
  let relf = tmp "cli_t2.relf" in
  let c, _ = run_cli (Printf.sprintf "workload kraken:crypto-aes -o %s" relf) in
  Alcotest.(check int) "workload" 0 c;
  let c, out = run_cli (Printf.sprintf "disasm %s" relf) in
  Alcotest.(check int) "disasm" 0 c;
  Alcotest.(check bool) "shows movs" true (contains out "mov");
  let c, out = run_cli (Printf.sprintf "trace %s --inputs 2 --limit 10" relf) in
  Alcotest.(check int) "trace" 0 c;
  Alcotest.(check bool) "cycles shown" true (contains out "cycles=")

(* the stepper runs under the backend the binary records: a temporal
   build stepped through the default spatial runtime used to end in a
   spurious use-after-free *)
let test_trace_temporal_binary () =
  skip_unless_available ();
  let relf = tmp "cli_vt.relf" and hard = tmp "cli_vt.hard.relf" in
  let c, _ = run_cli (Printf.sprintf "compile ../examples/victim.mc -o %s" relf) in
  Alcotest.(check int) "compile" 0 c;
  let c, _ =
    run_cli (Printf.sprintf "harden %s --backend temporal -o %s" relf hard)
  in
  Alcotest.(check int) "harden" 0 c;
  let c, out = run_cli (Printf.sprintf "trace %s --inputs 3 --limit 100000" hard) in
  Alcotest.(check int) "trace" 0 c;
  Alcotest.(check bool) "halted" true (contains out "[halted]");
  Alcotest.(check bool) "no spurious detection" false
    (contains out "use-after-free")

(* the stepper classifies a run's ending as [redfat run] does: an
   allocator abort is a verdict line, not a CLI fault *)
let test_trace_bad_free () =
  skip_unless_available ();
  let relf = tmp "cli_df.relf" and hard = tmp "cli_df.hard.relf" in
  let c, _ = run_cli (Printf.sprintf "workload bug:double-free -o %s" relf) in
  Alcotest.(check int) "workload" 0 c;
  let c, _ = run_cli (Printf.sprintf "harden %s -o %s" relf hard) in
  Alcotest.(check int) "harden" 0 c;
  let _, run_out =
    run_cli (Printf.sprintf "run %s --env redfat --inputs 7" hard)
  in
  let c, out = run_cli (Printf.sprintf "trace %s --inputs 7 --limit 100000" hard) in
  Alcotest.(check int) "trace" 0 c;
  let verdict = "fault: invalid free of 0x2800000010" in
  Alcotest.(check bool) ("run: " ^ verdict) true (contains run_out verdict);
  Alcotest.(check bool) ("trace: " ^ verdict) true
    (contains out ("[" ^ verdict ^ "]"));
  Alcotest.(check bool) "no CLI fault" false (contains out "fault[")

let test_fuzz_campaign () =
  skip_unless_available ();
  let report = tmp "cli_f.fuzz.json" in
  let c, out =
    run_cli
      (Printf.sprintf
         "fuzz bug:oob-write --budget 80 --seed 7 --expect-bugs 1 --out %s"
         report)
  in
  Alcotest.(check int) "exec campaign" 0 c;
  Alcotest.(check bool) "bug reported" true (contains out "BUG detect.");
  Alcotest.(check bool) "totals line" true (contains out "unique bug(s)");
  Alcotest.(check bool) "report written" true (Sys.file_exists report);
  (* an impossible bug floor exits 3 (campaigns ran, gate failed) *)
  let c, out =
    run_cli "fuzz bug:oob-write --budget 40 --seed 7 --expect-bugs 99"
  in
  Alcotest.(check int) "--expect-bugs gate" 3 c;
  Alcotest.(check bool) "gate explained" true (contains out "expected at least")

let test_fuzz_parse_mode () =
  skip_unless_available ();
  let c, out = run_cli "fuzz relf minic --mode parse --budget 60 --seed 5" in
  Alcotest.(check int) "parse campaigns" 0 c;
  Alcotest.(check bool) "typed rejections found" true (contains out "BUG parse.");
  (* seeded from the corrupt corpus: no input escapes the parse faults
     (a parser crash would exit 4) *)
  let c, _ =
    run_cli "fuzz relf minic --mode parse --corpus corrupt --budget 200 --seed 7"
  in
  Alcotest.(check int) "corpus-seeded parse campaigns" 0 c;
  (* an unknown parser name is a typed input fault, not a crash *)
  let c, out = run_cli "fuzz elf --mode parse --budget 10" in
  Alcotest.(check int) "unknown parser fails" 2 c;
  Alcotest.(check bool) "typed failure" true (contains out "FAILED")

(* the minimizer drops leading bytes as well as trailing ones: the
   decoder bug of this campaign first crashes on bytes that start with
   clean instructions, and its one-byte witness is the cut [mov] *)
let test_fuzz_x64_minimizes_to_one_byte () =
  skip_unless_available ();
  let c, out = run_cli "fuzz x64 --mode parse --seed 7" in
  Alcotest.(check int) "x64 parse campaign" 0 c;
  Alcotest.(check bool) "minimized to the cut mov" true
    (contains out "BUG decode.insn at site 0 [none]"
     && contains out "(min input: \\x02)")

(* the stage table lists each primitive once, under its own name: the
   workflow adds no second timing layer *)
let test_pipeline_stage_rows () =
  skip_unless_available ();
  let c, out = run_cli "pipeline spec:mcf --no-cache" in
  Alcotest.(check int) "pipeline" 0 c;
  let rec rows = function
    | [] -> []
    | l :: _ when String.starts_with ~prefix:"total wall" l -> []
    | l :: rest -> List.hd (String.split_on_char ' ' l) :: rows rest
  in
  let rec after_header = function
    | [] -> Alcotest.fail ("no stage table in: " ^ out)
    | l :: rest when String.starts_with ~prefix:"stage " l -> rows rest
    | _ :: rest -> after_header rest
  in
  Alcotest.(check (list string)) "one lowercase row per stage"
    [ "compile"; "harden"; "profile"; "run"; "verify" ]
    (after_header (String.split_on_char '\n' out))

(* pipeline --trace exports the whole workflow, audit included, with
   the hardened run's per-site check accounting *)
let test_trace_runs_audit () =
  skip_unless_available ();
  let f = tmp "cli_tr.json" in
  let c, _ = run_cli (Printf.sprintf "pipeline spec:mcf --no-cache --trace %s" f) in
  Alcotest.(check int) "pipeline --trace" 0 c;
  let trace = In_channel.with_open_text f In_channel.input_all in
  Alcotest.(check bool) "verify span in the trace" true
    (contains trace "\"name\":\"verify\"");
  Alcotest.(check bool) "vm.check counters in the trace" true
    (contains trace "vm.check.")

(* integers from the command line take plain decimal only *)
let test_outside_integers_strict () =
  skip_unless_available ();
  let relf = tmp "cli_i.relf" in
  let c, _ = run_cli (Printf.sprintf "workload spec:mcf -o %s" relf) in
  Alcotest.(check int) "workload" 0 c;
  List.iter
    (fun args ->
      let c, out = run_cli args in
      Alcotest.(check int) (args ^ " exit") 1 c;
      Alcotest.(check bool) (args ^ ": " ^ out) true
        (contains out "fault[input.script]"))
    [
      Printf.sprintf "run %s --inputs 0x3" relf;
      Printf.sprintf "run %s --inputs 1_2" relf;
      "pipeline spec:mcf --no-cache --inject 'run@0x1'";
    ]

let tests =
  [
    Alcotest.test_case "full workflow" `Slow test_full_workflow;
    Alcotest.test_case "compile and detect" `Quick test_compile_and_detect;
    Alcotest.test_case "run baseline and memcheck" `Quick
      test_run_baseline_and_memcheck;
    Alcotest.test_case "compile error position" `Quick
      test_compile_error_position;
    Alcotest.test_case "double harden refused" `Quick
      test_double_harden_refused;
    Alcotest.test_case "no-code gate" `Quick test_no_code_gate;
    Alcotest.test_case "disasm and trace" `Quick test_disasm_and_trace;
    Alcotest.test_case "trace a temporal binary" `Quick
      test_trace_temporal_binary;
    Alcotest.test_case "trace classifies an invalid free" `Quick
      test_trace_bad_free;
    Alcotest.test_case "fuzz campaign" `Quick test_fuzz_campaign;
    Alcotest.test_case "fuzz parse mode" `Quick test_fuzz_parse_mode;
    Alcotest.test_case "fuzz x64 minimizes to one byte" `Quick
      test_fuzz_x64_minimizes_to_one_byte;
    Alcotest.test_case "pipeline stage rows" `Quick test_pipeline_stage_rows;
    Alcotest.test_case "trace runs the audit" `Quick test_trace_runs_audit;
    Alcotest.test_case "outside integers strict" `Quick
      test_outside_integers_strict;
  ]
