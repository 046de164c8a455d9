(* The redfat command-line tool, mirroring the real RedFat's workflow:

     redfat compile victim.mc -o victim.relf  # or: redfat workload spec:mcf
     redfat disasm victim.relf                # inspect it
     redfat profile victim.relf --inputs 3 -o allow.lst
     redfat harden victim.relf --allowlist allow.lst -o victim.hard.relf
     redfat run victim.hard.relf --inputs 12 --env redfat
     redfat run victim.relf --inputs 12 --env memcheck

   or let the staged engine drive the whole workflow at once:

     redfat pipeline spec:mcf --jobs 4 --cache-dir _redfat_cache *)

open Cmdliner
module Fault = Engine.Fault

let parse_inputs s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun x ->
           match Binfmt.Reader.dec_opt (String.trim x) with
           | Some v -> v
           | None ->
             Fault.fail
               (Fault.Input
                  {
                    what = "script";
                    detail =
                      Printf.sprintf
                        "input script %S is not comma-separated integers" s;
                  }))

(* --- workload registry (one resolver shared with the serve daemon
   and the traffic bench: lib/serve/targets.ml) ----------------------- *)

let workload_names = Serve.Targets.workload_names
let find_workload = Serve.Targets.find_workload
let find_program = Serve.Targets.find_program

(* --- commands -------------------------------------------------------- *)

let list_cmd =
  let doc = "List the available built-in workload binaries." in
  let run () = List.iter print_endline (workload_names ()) in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let output =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")

let input_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BINARY" ~doc:"Input RELF binary.")

let inputs_arg =
  Arg.(
    value & opt string ""
    & info [ "inputs" ]
        ~doc:"Comma-separated integers fed to the program's input() calls.")

let workload_cmd =
  let doc = "Compile a built-in workload to a RELF binary file." in
  let wname =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Workload name, e.g. spec:mcf.")
  in
  let run name out =
    let bin, default_inputs = find_workload name in
    Binfmt.Relf.save out bin;
    Printf.printf "wrote %s (%d bytes of code); typical inputs: %s\n" out
      (Binfmt.Relf.code_size bin)
      (String.concat "," (List.map string_of_int default_inputs))
  in
  Cmd.v (Cmd.info "workload" ~doc) Term.(const run $ wname $ output)

let compile_cmd =
  let doc = "Compile MiniC source (.mc) to a RELF binary." in
  let src =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SOURCE" ~doc:"MiniC source file.")
  in
  let run src out =
    match Minic.Parser.compile_file src with
    | bin ->
      Binfmt.Relf.save out bin;
      Printf.printf "wrote %s (%d bytes of code)\n" out
        (Binfmt.Relf.code_size bin)
    | exception Minic.Parser.Parse_error (msg, pos) ->
      Printf.eprintf "%s:%d:%d: parse error: %s\n" src pos.line pos.col msg;
      exit 1
    | exception Minic.Lexer.Lex_error (msg, pos) ->
      Printf.eprintf "%s:%d:%d: lex error: %s\n" src pos.line pos.col msg;
      exit 1
    | exception Minic.Codegen.Compile_error msg ->
      Printf.eprintf "%s: compile error: %s\n" src msg;
      exit 1
  in
  Cmd.v (Cmd.info "compile" ~doc) Term.(const run $ src $ output)

let backend_arg =
  let backends =
    List.map
      (fun id -> (Backend.Check_backend.name id, id))
      Backend.Check_backend.all
  in
  Arg.(
    value
    & opt (enum backends) Backend.Check_backend.default
    & info [ "backend" ]
        ~doc:"Check backend: redzone|lowfat|temporal.  lowfat is the \
              paper's complementary (Redzone)+(LowFat) spatial design \
              (default); redzone drops the low-fat component; temporal \
              emits lock-and-key checks that catch use-after-free and \
              double-free without quarantine.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for independent work items (1 = sequential).")

(* --- the fuzzing-fleet campaign CLI ---------------------------------- *)

(* --corpus: a directory of seed files.  Missing / unreadable / empty
   is the typed input.corpus fault (the campaign never starts). *)
let load_corpus dir : (string * string) list =
  let fail detail = Fault.fail (Fault.Input { what = "corpus"; detail }) in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    fail (dir ^ ": not a directory");
  let files =
    match Sys.readdir dir with
    | a -> Array.to_list a |> List.sort compare
    | exception Sys_error e -> fail e
  in
  let seeds =
    List.filter_map
      (fun f ->
        let path = Filename.concat dir f in
        if Sys.is_directory path then None
        else
          Some (f, In_channel.with_open_bin path In_channel.input_all))
      files
  in
  if seeds = [] then fail (dir ^ ": empty seed directory");
  seeds

let fuzz_cmd =
  let doc =
    "Run a coverage-guided fuzzing campaign with the hardening checks as \
     the crash/triage oracle: mutated inputs are scheduled on the engine's \
     domain pool, inputs reaching new edge coverage join the corpus, and \
     every abnormal exit is deduplicated into a bug report keyed by \
     (oracle code, check site, backend).  See docs/FUZZING.md."
  in
  let targets =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:"Exec mode: workload name (e.g. bug:oob-write, spec:mcf), \
                MiniC source (.mc) or RELF binary (.relf); repeatable — \
                one campaign per target.  Parse mode: the parser to fuzz, \
                relf, minic or x64 (the instruction decoder).")
  in
  let seeds_arg =
    Arg.(
      value & opt_all string []
      & info [ "seed-input" ]
          ~doc:"Extra seed input script (comma-separated ints); repeatable \
                (exec mode).")
  in
  let budget =
    Arg.(
      value & opt int 2000
      & info [ "budget" ]
          ~doc:"Campaign executions per target, seed runs included.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:"Campaign LCG seed: the same (target, backend, seed, \
                budget) always yields the same bug report, for any --jobs.")
  in
  let max_steps =
    Arg.(
      value & opt int 200_000
      & info [ "max-steps" ]
          ~doc:"Per-execution VM step budget; exhausting it is triaged as \
                a hang (run.timeout).")
  in
  let mode =
    Arg.(
      value
      & opt (enum [ ("exec", `Exec); ("parse", `Parse) ]) `Exec
      & info [ "mode" ]
          ~doc:"exec fuzzes hardened binaries (VM input scripts); parse \
                fuzzes the relf/minic parsers or the x64 decoder with raw \
                bytes (every malformed input must be rejected with a typed \
                parse.* fault, decode.insn for x64 — anything else is a \
                parser bug).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Seed-corpus directory (e.g. test/corrupt): raw bytes per \
                file in parse mode, comma-separated ints per file in exec \
                mode.  Missing or empty is the typed input.corpus fault.")
  in
  let expect =
    Arg.(
      value & opt int 0
      & info [ "expect-bugs" ]
          ~doc:"Exit 3 unless the campaigns found at least this many \
                unique bugs in total (CI smoke gating).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the campaign reports (coverage, counters, and the \
                deduplicated, minimized bug list) as JSON.")
  in
  let run targets jobs backend budget seed max_steps mode corpus seed_inputs
      expect out =
    let module Pl = Engine.Pipeline in
    let config = { Fuzz.Campaign.budget; seed; max_steps } in
    let eng = Pl.create ~jobs ~cache:false () in
    let corpus_seeds = Option.map load_corpus corpus in
    let campaign name : Fuzz.Campaign.report =
      match mode with
      | `Parse ->
        let which =
          match name with
          | "relf" -> Fuzz.Campaign.Relf_parser
          | "minic" -> Fuzz.Campaign.Minic_parser
          | "x64" -> Fuzz.Campaign.X64_decoder
          | _ ->
            Fault.fail
              (Fault.Input
                 {
                   what = "target";
                   detail =
                     "parse mode fuzzes a parser: relf, minic or x64 (got "
                     ^ name ^ ")";
                 })
        in
        let seeds =
          match corpus_seeds with
          | Some files ->
            let mine (f, _) =
              match which with
              | Fuzz.Campaign.Minic_parser -> Filename.check_suffix f ".mc"
              | Fuzz.Campaign.Relf_parser | Fuzz.Campaign.X64_decoder ->
                not (Filename.check_suffix f ".mc")
            in
            (match List.filter mine files with
            | [] ->
              Fault.fail
                (Fault.Input
                   {
                     what = "corpus";
                     detail = "no seed files for the " ^ name ^ " parser";
                   })
            | fs -> List.map snd fs)
          | None -> (
            (* built-in seeds: one well-formed document plus the empty
               input; the deterministic stage corrupts from there *)
            match which with
            | Fuzz.Campaign.Relf_parser ->
              let prog, _, _ = find_program "bug:oob-write" in
              [ Binfmt.Relf.serialize (Pl.compile eng prog); "" ]
            | Fuzz.Campaign.Minic_parser ->
              [ "func main() { let x = input(); print(x); return 0; }"; "" ]
            | Fuzz.Campaign.X64_decoder ->
              (* code and trampolines, so checks are decoded too *)
              let prog, _, _ = find_program "bug:oob-write" in
              let hard = Pl.harden eng (Pl.compile eng prog) in
              List.filter_map
                (fun name ->
                  Option.map
                    (fun (s : Binfmt.Relf.section) -> s.bytes)
                    (Binfmt.Relf.find_section hard.Redfat.Rewrite.binary name))
                [ ".text"; ".redfat" ]
              @ [ "" ])
        in
        Fuzz.Campaign.run_parse eng ~config ~which ~seeds ()
      | `Exec ->
        let hard =
          let harden bin =
            (Pl.harden eng ~opts:{ Redfat.Rewrite.optimized with backend } bin)
              .Redfat.Rewrite.binary
          in
          if Filename.check_suffix name ".relf" then begin
            let bin = Pl.load_relf eng name in
            if Redfat.Rewrite.is_hardened bin then bin else harden bin
          end
          else
            let prog, _, _ = find_program name in
            harden (Pl.compile eng prog)
        in
        let seeds =
          [ []; [ 0 ] ]
          @ List.map parse_inputs seed_inputs
          @
          match corpus_seeds with
          | None -> []
          | Some files -> List.map (fun (_, s) -> parse_inputs (String.trim s)) files
        in
        Fuzz.Campaign.run_exec eng ~config ~target:name ~seeds hard
    in
    let results =
      List.map (fun name -> (name, Pl.protect eng ~target:name (fun () -> campaign name)))
        targets
    in
    let ok = List.filter_map (fun (_, r) -> Result.to_option r) results in
    let failed = List.length results - List.length ok in
    List.iter
      (fun (name, result) ->
        match result with
        | Error f -> Printf.printf "=== %s ===\nFAILED %s\n\n" name (Fault.to_string f)
        | Ok (r : Fuzz.Campaign.report) ->
          Printf.printf "=== %s [%s, %s] ===\n" name r.r_backend r.r_mode;
          Printf.printf
            "%d execs, %d crashes, %d edges, %d sites, corpus %d, %d unique \
             bug(s)\n"
            r.r_execs r.r_crashes r.r_cov_edges r.r_cov_sites r.r_corpus
            (List.length r.r_bugs);
          List.iter
            (fun b -> Printf.printf "BUG %s\n" (Fuzz.Campaign.bug_summary b))
            r.r_bugs;
          print_newline ())
      results;
    let unique_bugs =
      List.fold_left (fun acc r -> acc + List.length r.Fuzz.Campaign.r_bugs) 0 ok
    in
    Printf.printf "total: %d unique bug(s) across %d campaign(s)\n" unique_bugs
      (List.length ok);
    (match out with
    | Some f ->
      Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Fuzz.Campaign.reports_json ok));
      Printf.printf "wrote %s (campaign report JSON)\n" f
    | None -> ());
    Pl.close eng;
    if failed > 0 then begin
      Printf.printf "%d of %d campaign(s) failed\n" failed (List.length results);
      exit 2
    end;
    (* in parse mode a run.fault bug is a parser crash *)
    let crash (r : Fuzz.Campaign.report) =
      List.exists (fun b -> b.Fuzz.Campaign.b_code = "run.fault") r.r_bugs
    in
    if mode = `Parse && List.exists crash ok then exit 4;
    if unique_bugs < expect then begin
      Printf.printf "expected at least %d unique bug(s), found %d\n" expect
        unique_bugs;
      exit 3
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ targets $ jobs_arg $ backend_arg $ budget $ seed $ max_steps
      $ mode $ corpus_arg $ seeds_arg $ expect $ out_arg)

let disasm_cmd =
  let doc = "Disassemble the text (and trampoline) sections." in
  let run file =
    let bin = Binfmt.Relf.load_file file in
    print_endline (Binfmt.Relf.disasm bin);
    match Binfmt.Relf.find_section bin ".redfat" with
    | Some s when s.bytes <> "" ->
      print_endline "\n; --- .redfat trampolines ---";
      print_endline (X64.Disasm.dump ~addr:s.addr s.bytes)
    | _ -> ()
  in
  Cmd.v (Cmd.info "disasm" ~doc) Term.(const run $ input_file)

let level_arg =
  let levels =
    [ ("unoptimized", Redfat.Rewrite.unoptimized);
      ("elim", Redfat.Rewrite.with_elim);
      ("batch", Redfat.Rewrite.with_batch);
      ("full", Redfat.Rewrite.optimized) ]
  in
  Arg.(
    value
    & opt (enum levels) Redfat.Rewrite.optimized
    & info [ "level" ] ~doc:"Optimization level: unoptimized|elim|batch|full.")

let no_reads =
  Arg.(
    value & flag
    & info [ "no-reads" ] ~doc:"Instrument writes only (Table 1 -reads).")

let hoist_arg =
  Arg.(
    value & flag
    & info [ "hoist" ]
        ~doc:"Hoist checks out of counted loops: one widened check over \
              the loop's access hull in the preheader replaces the \
              per-iteration checks, each covered site recorded as a \
              proof-carrying .elimtab hoist entry that the soundness \
              linter re-derives and audits.  Backends that cannot widen \
              (temporal) decline and keep per-iteration checks.")

let allowlist_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "allowlist" ]
        ~doc:"allow.lst from 'redfat profile'; sites listed get the full \
              (Redzone)+(LowFat) check, others (Redzone)-only.")

let harden_cmd =
  let doc = "Statically rewrite a binary with RedFat instrumentation." in
  let run file out level noreads allow backend hoist =
    let bin = Binfmt.Relf.load_file file in
    if Redfat.Rewrite.is_hardened bin then begin
      Printf.eprintf
        "%s already carries RedFat instrumentation (a .redfat section); \
         refusing to instrument it twice.\n"
        file;
      exit 1
    end;
    let opts =
      { level with
        Redfat.Rewrite.instrument_reads =
          level.Redfat.Rewrite.instrument_reads && not noreads;
        allowlist = Option.map Profile.Allowlist.load allow;
        backend;
        hoist = level.Redfat.Rewrite.hoist || hoist }
    in
    let hard = Redfat.harden ~opts bin in
    Binfmt.Relf.save out hard.binary;
    Format.printf "%a@." Redfat.Rewrite.pp_stats hard.stats;
    Printf.printf "wrote %s\n" out
  in
  Cmd.v (Cmd.info "harden" ~doc)
    Term.(
      const run $ input_file $ output $ level_arg $ no_reads $ allowlist_arg
      $ backend_arg $ hoist_arg)

let verify_cmd =
  let doc =
    "Audit a hardened binary with the rewrite-soundness linter: statically \
     prove every memory operand is instrumented, eliminated with a recorded \
     justification, or allow-listed."
  in
  let allow =
    Arg.(
      value
      & opt (some file) None
      & info [ "allow" ] ~docv:"FILE"
          ~doc:"Allow-list of site addresses (one hex address per line) the \
                audit accepts as intentionally unchecked.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ] ~doc:"Only report failures, not the summary.")
  in
  let run file allow quiet =
    let bin = Binfmt.Relf.load_file file in
    if not (Redfat.Rewrite.is_hardened bin) then begin
      Printf.eprintf "%s is not a hardened binary (no .redfat section)\n" file;
      exit 1
    end;
    let allow = Option.map Profile.Allowlist.load allow in
    match Redfat.Rewrite.verify ?allow bin with
    | Error e ->
      Printf.eprintf "%s: %s\n" file e;
      exit 1
    | Ok r ->
      if not quiet then Format.printf "%a@." Redfat.Verify.pp_report r;
      List.iter
        (fun (f : Redfat.Verify.failure) ->
          Printf.printf "FAIL %#x: %s\n" f.f_addr f.f_reason)
        r.failures;
      if Redfat.Verify.ok r then
        Printf.printf "%s: OK (%d memory operands accounted for)\n" file
          r.total
      else begin
        Printf.printf "%s: FAILED (%d unaccounted)\n" file
          (List.length r.failures);
        exit 1
      end
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ input_file $ allow $ quiet)

let profile_cmd =
  let doc =
    "Profiling phase (paper Fig. 5): run the instrumented binary on a test \
     suite and emit the allow-list."
  in
  let suites =
    Arg.(
      value
      & opt_all string []
      & info [ "inputs" ]
          ~doc:"Input script (comma-separated ints); repeatable, one per \
                test-suite run.")
  in
  let run file suites jobs out =
    let bin = Binfmt.Relf.load_file file in
    let test_suite = List.map parse_inputs suites in
    let test_suite = if test_suite = [] then [ [] ] else test_suite in
    let eng = Engine.Pipeline.create ~jobs ~cache:false () in
    let allow = Engine.Pipeline.profile eng ~test_suite bin in
    Engine.Pipeline.close eng;
    Profile.Allowlist.save out allow;
    Printf.printf "wrote %s (%d allow-listed sites)\n" out (List.length allow)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(const run $ input_file $ suites $ jobs_arg $ output)

let pipeline_cmd =
  let doc =
    "Run the Figure-5 workflow (compile, profile, harden, audit, baseline \
     run, then the hardened run in Log mode) on one or more targets, with \
     per-stage timings, artifact-cache statistics and per-target fault \
     isolation: a failing target is reported as a typed fault and the rest \
     of the batch completes (exit code 2), unless $(b,--strict) makes the \
     first fault fail the whole batch (exit code 1)."
  in
  let wnames =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"TARGET"
          ~doc:"Workload name (e.g. spec:mcf), MiniC source file (.mc), or \
                RELF binary file (.relf); repeatable.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the content-addressed artifact cache.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist artifacts on disk so repeated invocations start warm.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Also write the run's spans and counters as Chrome \
                trace-event JSON (load in Perfetto / chrome://tracing).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the run's report (stages, targets, counters, and the \
                typed per-target fault records) as JSON.")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Fail fast: the first fault aborts the whole batch with exit \
                code 1 instead of degrading or skipping the target.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:"Deterministic fault injection (testing): a comma-separated \
                list of POINT[:SUBSTR][@N][%PCT[~SEED]] clauses, or 'none'. \
                Defaults to \\$REDFAT_FAULT.")
  in
  let run names inputs jobs no_cache cache_dir trace out strict inject_spec
      backend hoist =
    let inject =
      match inject_spec with
      | None -> Engine.Faultinject.of_env ()
      | Some s -> (
        match Engine.Faultinject.parse s with
        | Ok t -> t
        | Error e ->
          Fault.fail (Fault.Input { what = "script"; detail = "--inject: " ^ e }))
    in
    let relf_inputs = parse_inputs inputs in
    let eng =
      Engine.Pipeline.create ~jobs ~cache:(not no_cache) ?cache_dir ~strict
        ~inject ()
    in
    let module Pl = Engine.Pipeline in
    let opts = { Redfat.Rewrite.optimized with backend; hoist } in
    (* one summary per target; a .relf target skips compile and uses
       --inputs, a workload/.mc target compiles and uses its own
       reference inputs *)
    let process name =
      let bin, train, inputs =
        if Filename.check_suffix name ".relf" then
          (Pl.load_relf eng name, [ relf_inputs ], relf_inputs)
        else
          let prog, train, inputs = find_program name in
          (Pl.compile eng prog, train, inputs)
      in
      (* the Figure-5 workflow, then the hardened binary's Log-mode run
         on the same inputs with per-site check accounting for --trace *)
      let w = Pl.workflow eng ~opts ~train ~inputs bin in
      let acct = Vm.Cpu.new_acct () in
      let hrun =
        Pl.run eng ~acct ~inputs w.Pl.hard.Redfat.Rewrite.binary
          (Hardened { Redfat_rt.Runtime.default_options with mode = Log })
      in
      Pl.record_vm_acct eng acct;
      Pl.summary w hrun
    in
    let results = Pl.map_targets eng process names in
    let failed = ref 0 in
    List.iter2
      (fun name result ->
        match result with
        | Ok summary -> Printf.printf "=== %s ===\n%s\n\n" name summary
        | Error f ->
          incr failed;
          Printf.printf "=== %s ===\nFAILED %s\n\n" name (Fault.to_string f))
      names results;
    Format.printf "%a@." Engine.Report.pp (Pl.report eng);
    let st = Pl.cache_stats eng in
    Printf.printf
      "cache: %s, %d hits (%d mem / %d disk) / %d misses / %d stores\n"
      (if Pl.cache_enabled eng then "enabled" else "disabled")
      st.Engine.Cache.hits st.Engine.Cache.hits_mem st.Engine.Cache.hits_disk
      st.Engine.Cache.misses st.Engine.Cache.stores;
    (match out with
    | Some f ->
      Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Pl.emit_json eng ()));
      Printf.printf "wrote %s (report JSON)\n" f
    | None -> ());
    (match trace with
    | Some f ->
      Out_channel.with_open_text f (fun oc ->
          Out_channel.output_string oc (Pl.trace_json eng));
      Printf.printf "wrote %s (Chrome trace-event JSON)\n" f
    | None -> ());
    Pl.close eng;
    if !failed > 0 then begin
      Printf.printf "%d of %d target(s) failed\n" !failed (List.length names);
      exit 2
    end
  in
  Cmd.v (Cmd.info "pipeline" ~doc)
    Term.(
      const run $ wnames $ inputs_arg $ jobs_arg $ no_cache $ cache_dir
      $ trace_arg $ out_arg $ strict_arg $ inject_arg $ backend_arg
      $ hoist_arg)

let env_arg =
  Arg.(
    value
    & opt (enum [ ("baseline", `Baseline); ("redfat", `Redfat);
                  ("memcheck", `Memcheck) ])
        `Baseline
    & info [ "env" ]
        ~doc:"Execution environment: baseline (glibc), redfat (libredfat \
              preloaded), memcheck (DBI).")

let log_flag =
  Arg.(
    value & flag
    & info [ "log" ]
        ~doc:"Log memory errors and continue instead of aborting.")

let random_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "randomize" ] ~docv:"SEED"
        ~doc:"Enable heap randomization with the given seed.")

let run_cmd =
  let doc = "Run a binary in the simulated machine." in
  let run file inputs env log random =
    let bin = Binfmt.Relf.load_file file in
    let inputs = parse_inputs inputs in
    (* one run, then what each runtime has to say about it *)
    let go (type s) (runtime : s Redfat.runtime)
        (explain : s Redfat.outcome -> unit) =
      let o = Redfat.run ~inputs bin runtime in
      List.iter (fun v -> Printf.printf "%d\n" v) o.run.outputs;
      Printf.printf "[%s; %d instructions, %d cycles]\n"
        (Redfat.verdict_to_string o.verdict)
        o.run.steps o.run.cycles;
      explain o
    in
    match env with
    | `Baseline -> go Baseline ignore
    | `Redfat ->
      let mode = if log then Redfat_rt.Runtime.Log else Harden in
      go (Hardened { Redfat_rt.Runtime.default_options with mode; random })
        (fun o ->
          let rt = o.state in
          (match o.verdict with
           | Redfat.Detected e ->
             Printf.printf "%s\n" (Redfat_rt.Runtime.explain rt e)
           | _ -> ());
          let errs = Redfat_rt.Runtime.errors rt in
          if errs <> [] then begin
            Printf.printf "%d unique error site(s):\n" (List.length errs);
            List.iter
              (fun (e : Redfat_rt.Runtime.access_error) ->
                Printf.printf "  %s\n" (Redfat_rt.Runtime.explain rt e))
              errs
          end;
          Printf.printf
            "coverage: %.1f%% of heap accesses under the %s backend's primary \
             check\n"
            (Redfat_rt.Runtime.coverage_percent rt)
            (Backend.Check_backend.name (Redfat.backend_of_binary bin)))
    | `Memcheck ->
      go Memcheck (fun o ->
          List.iter
            (fun (e : Baselines.Memcheck.error) ->
              Printf.printf "memcheck: invalid %s of size %d at %#x (rip %#x)\n"
                (if e.write then "write" else "read")
                e.len e.addr e.rip)
            (Baselines.Memcheck.errors o.state))
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ input_file $ inputs_arg $ env_arg $ log_flag $ random_arg)

let trace_cmd =
  let doc =
    "Print the first N executed instructions of a RELF binary under \
     libredfat, with the backend the binary records (debugging aid).  \
     For a structured trace of the whole workflow, use $(b,redfat \
     pipeline --trace)."
  in
  let limit =
    Arg.(value & opt int 60 & info [ "limit"; "n" ] ~doc:"Instructions to show.")
  in
  let run file inputs limit =
    let bin = Binfmt.Relf.load_file file in
    let cpu, _, vmrt =
      Redfat.load ~inputs:(parse_inputs inputs) (Redfat.image bin)
        (Hardened Redfat_rt.Runtime.default_options)
    in
    Vm.Cpu.enter cpu ~entry:bin.entry;
    match
      for _ = 1 to limit do
        let i, _ = X64.Decode.decode ~addr:cpu.rip
            (Vm.Mem.read_string cpu.mem ~addr:cpu.rip ~len:40) 0
        in
        Printf.printf "%8x: %-40s cycles=%d\n" cpu.rip
          (X64.Disasm.to_string i) cpu.cycles;
        Vm.Cpu.step cpu vmrt
      done
    with
    | () -> Printf.printf "... (trace limit reached)\n"
    | exception Vm.Cpu.Halt -> Printf.printf "[halted]\n"
    | exception e -> (
      match Redfat.verdict_of_exn e with
      | Some (_, Redfat.Detected d) ->
        Printf.printf "[%s at site %#x]\n"
          (Redfat_rt.Runtime.kind_name d.kind) d.site
      | Some (_, v) -> Printf.printf "[%s]\n" (Redfat.verdict_to_string v)
      | None -> raise e)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ input_file $ inputs_arg $ limit)

let serve_cmd =
  let doc =
    "Run the hardening-as-a-service daemon: a stream of line-delimited \
     JSON harden/verify/trace requests answered from a size-bounded \
     shared LRU hot cache (admission on second touch, eviction by bytes, \
     single-flight deduplication) layered above the engine's artifact \
     cache, with per-request fault isolation — a poisoned request \
     answers ok:false with its typed fault and the daemon keeps \
     serving.  Three transports: $(b,--socket) listens on a \
     Unix-domain socket until SIGTERM or a shutdown request (clean \
     exit 0); $(b,--script) handles a request file in-process and \
     exits 2 if any request failed (deterministic testing); \
     $(b,--socket) with $(b,--send) is the client, streaming a request \
     file to a running daemon and printing each response."
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on this Unix-domain socket (daemon mode); with \
                $(b,--send), connect to it instead (client mode).")
  in
  let script_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "script" ] ~docv:"FILE"
          ~doc:"Handle the request lines of FILE in-process and print each \
                response (batch mode; exclusive with --socket).")
  in
  let send_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "send" ] ~docv:"FILE"
          ~doc:"Client mode (requires --socket): stream FILE's request \
                lines to the daemon and print each response; exit 2 if \
                any response is not ok.")
  in
  let mem_arg =
    Arg.(
      value
      & opt int (64 * 1024 * 1024)
      & info [ "mem-bytes" ] ~docv:"N"
          ~doc:"Byte capacity of the shared LRU hot cache (default 64 MiB).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Disable the engine's content-addressed artifact cache \
                underneath the hot tier.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Persist engine artifacts on disk so daemon restarts start \
                warm.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"SPEC"
          ~doc:"Deterministic fault injection (testing), as in \
                $(b,redfat pipeline --inject); the canonical spec is part \
                of every hot-cache key.  Defaults to \\$REDFAT_FAULT.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"On exit, write the serving report (serve.req.*/\
                serve.cache.* counters, latency histogram, spans, faults) \
                as JSON.")
  in
  let read_lines file =
    In_channel.with_open_text file In_channel.input_all
    |> String.split_on_char '\n'
  in
  let run socket script send mem_bytes jobs no_cache cache_dir inject_spec out
      =
    let inject =
      match inject_spec with
      | None -> Engine.Faultinject.of_env ()
      | Some s -> (
        match Engine.Faultinject.parse s with
        | Ok t -> t
        | Error e ->
          Fault.fail (Fault.Input { what = "script"; detail = "--inject: " ^ e }))
    in
    match (socket, script, send) with
    | Some sock, None, Some file ->
      (* client: no engine on this side *)
      let failed =
        Serve.Server.send ~socket:sock ~lines:(read_lines file)
          ~emit:print_endline
      in
      if failed > 0 then begin
        Printf.eprintf "serve: %d request(s) failed\n" failed;
        exit 2
      end
    | None, _, Some _ ->
      Fault.fail
        (Fault.Input { what = "script"; detail = "--send requires --socket" })
    | Some _, Some _, None ->
      Fault.fail
        (Fault.Input
           { what = "script"; detail = "--socket and --script are exclusive" })
    | None, None, None ->
      Fault.fail
        (Fault.Input
           { what = "script"; detail = "need --socket or --script" })
    | _ ->
      let eng =
        Engine.Pipeline.create ~jobs ~cache:(not no_cache) ?cache_dir ~inject
          ()
      in
      let srv = Serve.Server.create ~mem_bytes eng in
      let write_out () =
        match out with
        | Some f ->
          Out_channel.with_open_text f (fun oc ->
              Out_channel.output_string oc (Engine.Pipeline.emit_json eng ()));
          Printf.printf "wrote %s (serving report JSON)\n" f
        | None -> ()
      in
      let failed =
        match (socket, script) with
        | Some sock, None ->
          let stop _ = Serve.Server.request_stop srv in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Printf.printf "serving on %s (%d job(s), %d MiB hot cache)\n%!"
            sock jobs
            (mem_bytes / (1024 * 1024));
          Serve.Server.listen srv ~socket:sock;
          print_endline "serve: shutting down";
          0
        | None, Some file ->
          Serve.Server.run_script srv ~lines:(read_lines file)
            ~emit:print_endline
        | _ -> assert false
      in
      let ls = Serve.Lru.stats (Serve.Server.lru srv) in
      Printf.printf
        "serve: %d hit / %d miss / %d coalesced; %d admitted, %d evicted, \
         %d bytes hot\n"
        ls.Serve.Lru.hits ls.Serve.Lru.misses ls.Serve.Lru.coalesced
        ls.Serve.Lru.admitted ls.Serve.Lru.evictions ls.Serve.Lru.bytes;
      write_out ();
      Engine.Pipeline.close eng;
      if failed > 0 then begin
        Printf.eprintf "serve: %d request(s) failed\n" failed;
        exit 2
      end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ script_arg $ send_arg $ mem_arg $ jobs_arg
      $ no_cache $ cache_dir $ inject_arg $ out_arg)

let errors_cmd =
  let doc =
    "Print the typed fault taxonomy (stable codes, severities, meanings, \
     degradation behaviour).  Mostly an internal aid: $(b,--list) emits the \
     exact markdown table embedded in docs/MANUAL.md, which tools/doc_check \
     uses to keep the manual in sync with the code."
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:"Emit the taxonomy as the markdown table embedded in \
                docs/MANUAL.md (the doc-sync format).")
  in
  let run list =
    if list then print_string (Fault.registry_markdown ())
    else
      List.iter
        (fun (i : Fault.info) ->
          Printf.printf "%-16s %-9s %s\n" i.i_code
            (Fault.severity_to_string i.i_severity)
            i.i_meaning)
        Fault.registry
  in
  Cmd.v (Cmd.info "errors" ~doc) Term.(const run $ list_flag)

let main_cmd =
  let doc = "harden stripped binaries against more memory errors" in
  let info = Cmd.info "redfat" ~version:"1.0.0" ~doc in
  Cmd.group info
    [ list_cmd; workload_cmd; compile_cmd; disasm_cmd; harden_cmd;
      verify_cmd; profile_cmd; pipeline_cmd; fuzz_cmd; run_cmd; trace_cmd;
      serve_cmd; errors_cmd ]

(* every command runs under the fault boundary: an escaping exception
   is classified into the typed taxonomy and printed as one stable
   `redfat: fault[CODE] ...` line (exit code 1), never a raw OCaml
   backtrace *)
let () =
  try exit (Cmd.eval ~catch:false main_cmd)
  with e ->
    let f = Fault.of_exn e in
    Printf.eprintf "redfat: %s\n" (Fault.to_string f);
    exit 1
