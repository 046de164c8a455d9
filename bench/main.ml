(* The RedFat evaluation harness: regenerates every table and figure of
   the paper (EuroSys'22), plus the extension experiments.  Run with no
   argument for everything, or with one or more of (run in the order
   given, into one report):

     table1 table2 table2x fig1 fig2 fig3 fig4 fig5 fig67 fig8
     fps detected uaf stats sec74 ablation serve rebuild fuzz all

   Flags (anywhere on the command line):

     --jobs N      fan independent workloads out over N domains
     --no-cache    disable the artifact cache (compiles/rewrites/
                   allow-lists; persisted in _redfat_cache/)
     --out F.json  write a structured report (per-target cycles and
                   overheads, per-check-kind counters, per-stage wall
                   time, cache hit/miss, jobs) to F.json
     --trace F     write the run's spans and counters as Chrome
                   trace-event JSON (Perfetto-loadable)

   Output is byte-identical for any --jobs value (modulo fig8's
   measured wall-clock rewrite-time line, serve's throughput/latency
   lines and rebuild's timing lines): workers never print;
   results are collected in deterministic order, then rendered.
   See EXPERIMENTS.md for paper-vs-measured. *)

module Rt = Redfat_rt.Runtime
module Rw = Redfat.Rewrite
module Pl = Engine.Pipeline

let libredfat = Redfat.Hardened Rt.default_options

let log_opts = { Rt.default_options with mode = Rt.Log }

let pf fmt = Printf.printf fmt

(* --- command line + the engine -------------------------------------- *)

let experiments_arg, opt_jobs, opt_cache, opt_out, opt_trace =
  let exps = ref []
  and jobs = ref 1
  and cache = ref true
  and out = ref None
  and trace = ref None in
  let usage () =
    prerr_endline
      "usage: main.exe [experiment ...] [--jobs N] [--no-cache] [--out FILE] \
       [--trace FILE]";
    exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> jobs := n
      | _ -> usage ());
      parse rest
    | "--no-cache" :: rest ->
      cache := false;
      parse rest
    | "--out" :: f :: rest ->
      out := Some f;
      parse rest
    | "--trace" :: f :: rest ->
      trace := Some f;
      parse rest
    | x :: _ when String.length x > 0 && x.[0] = '-' -> usage ()
    | x :: rest ->
      exps := x :: !exps;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* fail on an unwritable output path now, not after the whole run;
     append mode leaves an existing report intact if the run fails *)
  List.iter
    (fun (flag, r) ->
      match !r with
      | Some f -> (
        try
          Out_channel.with_open_gen
            [ Open_wronly; Open_creat; Open_append; Open_text ]
            0o644 f ignore
        with Sys_error e ->
          prerr_endline (flag ^ ": " ^ e);
          exit 1)
      | None -> ())
    [ ("--out", out); ("--trace", trace) ];
  ( (match List.rev !exps with [] -> [ "all" ] | l -> l),
    !jobs,
    !cache,
    !out,
    !trace )

let eng =
  Pl.create ~jobs:opt_jobs ~cache:opt_cache
    ?cache_dir:(if opt_cache then Some "_redfat_cache" else None) ()

let wall () = Unix.gettimeofday ()

(* record one measured workload into the --out report *)
let target name ?cycles ?overheads ?counters t0 =
  Engine.Report.add_target (Pl.report eng) ~name ?cycles ?overheads ?counters
    ~wall:(wall () -. t0) ()

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float (List.length xs))

let hr title = pf "\n==== %s ====\n%!" title

(* ------------------------------------------------------------------ *)
(* Table 1: SPEC CPU2006 overhead of every RedFat configuration        *)
(* ------------------------------------------------------------------ *)

type t1row = {
  r_name : string;
  r_lang : Workloads.Spec.lang;
  r_cov : float;
  r_base : int;
  r_unopt : float;
  r_elim : float;
  r_batch : float;
  r_merge : float;
  r_nosize : float;
  r_hoist : float;
  r_noreads : float;
  r_memcheck : float;
}

let table1_row (b : Workloads.Spec.bench) : t1row =
  let t0 = wall () in
  let bin = Pl.compile eng (Workloads.Spec.program b) in
  let refs = Workloads.Spec.ref_inputs b in
  let { Redfat.run = base; verdict = bv; _ } =
    Pl.run eng ~inputs:refs bin Baseline
  in
  (match bv with
   | Redfat.Finished _ -> ()
   | v -> failwith (b.name ^ ": baseline " ^ Redfat.verdict_to_string v));
  (* allow-list from the train workload (paper §5 / §7.1 methodology) *)
  let allow =
    Pl.profile eng ~test_suite:[ Workloads.Spec.train_inputs b ] bin
  in
  let run ?(rt = log_opts) opts =
    let hard =
      Pl.harden eng ~opts:{ opts with Rw.allowlist = Some allow } bin
    in
    let hr = Pl.run eng ~inputs:refs hard.binary (Hardened rt) in
    (match hr.verdict with
     | Redfat.Finished _ -> ()
     | v -> failwith (b.name ^ ": " ^ Redfat.verdict_to_string v));
    hr
  in
  let unopt = run Rw.unoptimized in
  let elim = run Rw.with_elim in
  let batch = run Rw.with_batch in
  let merge = run Rw.optimized in
  let nosize = run ~rt:{ log_opts with size_harden = false } Rw.optimized in
  let hoist = run ~rt:{ log_opts with size_harden = false } Rw.with_hoist in
  let noreads =
    run
      ~rt:{ log_opts with size_harden = false; check_reads = false }
      { Rw.optimized with instrument_reads = false }
  in
  let mc = (Pl.run eng ~inputs:refs bin Memcheck).run in
  let ov (hrun : Redfat.Runtime.t Redfat.outcome) =
    float_of_int hrun.run.cycles /. float_of_int base.cycles
  in
  let row =
    {
      r_name = b.name;
      r_lang = b.lang;
      r_cov = Rt.coverage_percent nosize.state;
      r_base = base.cycles;
      r_unopt = ov unopt;
      r_elim = ov elim;
      r_batch = ov batch;
      r_merge = ov merge;
      r_nosize = ov nosize;
      r_hoist = ov hoist;
      r_noreads = ov noreads;
      r_memcheck = float_of_int mc.cycles /. float_of_int base.cycles;
    }
  in
  (* static counters of the fully optimized configuration (cache hit:
     the same harden ran for the "merge" column) *)
  let opt_stats =
    (Pl.harden eng ~opts:{ Rw.optimized with allowlist = Some allow } bin)
      .stats
  in
  (* static counters of the loop-hoisting configuration (cache hit:
     the same harden ran for the "+hoist" column) *)
  let hoist_stats =
    (Pl.harden eng ~opts:{ Rw.with_hoist with allowlist = Some allow } bin)
      .stats
  in
  (* static check counts under the non-default backends (harden only,
     no run): gated by tools/bench_diff per backend.* counter *)
  let backend_counters =
    List.concat_map
      (fun backend ->
        let st =
          (Pl.harden eng
             ~opts:{ Rw.optimized with allowlist = Some allow; backend }
             bin)
            .stats
        in
        [ ( "backend." ^ Backend.Check_backend.name backend
            ^ ".checks_emitted",
            st.Rw.checks_emitted ) ])
      [ Backend.Check_backend.Redzone; Backend.Check_backend.Temporal ]
  in
  target ("spec:" ^ b.name) ~cycles:base.cycles
    ~overheads:
      [ ("unopt", row.r_unopt); ("elim", row.r_elim);
        ("batch", row.r_batch); ("merge", row.r_merge);
        ("nosize", row.r_nosize); ("hoist", row.r_hoist);
        ("noreads", row.r_noreads); ("memcheck", row.r_memcheck) ]
    ~counters:
      ([ ("checks_emitted", opt_stats.Rw.checks_emitted);
         ("eliminated_global", opt_stats.Rw.eliminated_global);
         ("zero_save_sites", opt_stats.Rw.zero_save_sites);
         ("hoisted_checks", hoist_stats.Rw.hoisted_checks);
         ("widened_span_bytes", hoist_stats.Rw.widened_span_bytes);
         ("hoist.checks_emitted", hoist_stats.Rw.checks_emitted) ]
      @ opt_stats.Rw.checks_by_kind @ backend_counters)
    t0;
  row

let table1 () =
  hr "Table 1: SPEC CPU2006 performance (slow-down factors vs baseline)";
  pf "%-11s %-7s %8s %9s %7s %7s %7s %7s %7s %7s %7s %9s\n" "Binary" "lang"
    "coverage" "Baseline" "unopt" "+elim" "+batch" "+merge" "-size" "+hoist"
    "-reads" "Memcheck";
  let rows = Pl.map eng table1_row Workloads.Spec.all in
  List.iter
    (fun r ->
      pf
        "%-11s %-7s %7.1f%% %9d %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %8.2fx\n%!"
        r.r_name
        (Workloads.Spec.lang_name r.r_lang)
        r.r_cov r.r_base r.r_unopt r.r_elim r.r_batch r.r_merge r.r_nosize
        r.r_hoist r.r_noreads r.r_memcheck)
    rows;
  let g f = geomean (List.map f rows) in
  pf
    "%-11s %-7s %7.1f%% %9.0f %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx %8.2fx\n"
    "geo-mean" ""
    (geomean (List.map (fun r -> r.r_cov) rows))
    (geomean (List.map (fun r -> float_of_int r.r_base) rows))
    (g (fun r -> r.r_unopt))
    (g (fun r -> r.r_elim))
    (g (fun r -> r.r_batch))
    (g (fun r -> r.r_merge))
    (g (fun r -> r.r_nosize))
    (g (fun r -> r.r_hoist))
    (g (fun r -> r.r_noreads))
    (g (fun r -> r.r_memcheck));
  pf "(paper geo-means: coverage 72.6%%, unopt 6.78x, +elim 5.50x, +batch 5.06x,\n";
  pf " +merge 4.18x, -size 3.81x, -reads 1.55x, Memcheck 11.76x;\n";
  pf " +hoist is this artifact's loop hoisting on top of -size)\n"

(* ------------------------------------------------------------------ *)
(* Table 2: non-incremental overflows (CVEs + Juliet CWE-122)          *)
(* ------------------------------------------------------------------ *)

let table2 () =
  hr "Table 2: CVEs/CWEs for non-incremental bounds errors";
  pf "%-34s %-14s %-14s\n" "entry" "Memcheck" "RedFat";
  let cve_rows =
    Pl.map eng
      (fun (c : Workloads.Cve.case) ->
        let t0 = wall () in
        let bin = Pl.compile eng c.program in
        let hard = Pl.harden eng bin in
        let benign = Pl.run eng hard.binary ~inputs:c.benign_inputs libredfat in
        (match benign.verdict with
         | Redfat.Finished _ -> ()
         | v -> failwith (c.name ^ " benign: " ^ Redfat.verdict_to_string v));
        let attack = Pl.run eng hard.binary ~inputs:c.attack_inputs libredfat in
        let rf = match attack.verdict with Redfat.Detected _ -> 1 | _ -> 0 in
        let mc = (Pl.run eng bin ~inputs:c.attack_inputs Memcheck).state in
        let mcd = if Baselines.Memcheck.errors mc <> [] then 1 else 0 in
        target ("cve:" ^ c.name) t0;
        (c, mcd, rf))
      Workloads.Cve.all
  in
  List.iter
    (fun ((c : Workloads.Cve.case), mcd, rf) ->
      pf "%-34s %d/1 (%3d%%)     %d/1 (%3d%%)\n%!"
        (Printf.sprintf "%s (%s)" c.cve c.name)
        mcd (mcd * 100) rf (rf * 100))
    cve_rows;
  let total = List.length Workloads.Juliet.all in
  let juliet =
    Pl.map eng
      (fun (c : Workloads.Juliet.case) ->
        let bin = Pl.compile eng c.program in
        let hard = Pl.harden eng bin in
        let attack = Pl.run eng hard.binary ~inputs:c.attack_inputs libredfat in
        let rf =
          match attack.verdict with Redfat.Detected _ -> true | _ -> false
        in
        let mc = (Pl.run eng bin ~inputs:c.attack_inputs Memcheck).state in
        (rf, Baselines.Memcheck.errors mc <> []))
      Workloads.Juliet.all
  in
  let rf_det = ref 0 and mc_det = ref 0 in
  List.iter
    (fun (rf, mc) ->
      if rf then incr rf_det;
      if mc then incr mc_det)
    juliet;
  pf "%-34s %d/%d (%3.0f%%)   %d/%d (%3.0f%%)\n"
    "CWE-122-Heap-Buffer (Juliet)" !mc_det total
    (100. *. float_of_int !mc_det /. float_of_int total)
    !rf_det total
    (100. *. float_of_int !rf_det /. float_of_int total);
  pf "(paper: Memcheck 0%% everywhere, RedFat 100%% everywhere)\n"

(* ------------------------------------------------------------------ *)
(* Table 2x (extension): backend x attack-class detection matrix       *)
(* ------------------------------------------------------------------ *)

(* one case = (program, benign inputs if any, attack inputs); classify
   its attack run under one backend as a typed detection, an allocator
   abort (stopped, but not classified), or a miss *)
let t2x_classify hard_binary ~benign ~attack =
  (match benign with
  | None -> ()
  | Some inputs -> (
    let b = Pl.run eng ~inputs hard_binary libredfat in
    match b.Redfat.verdict with
    | Redfat.Finished _ -> ()
    | v -> failwith ("table2x benign run: " ^ Redfat.verdict_to_string v)));
  let a = Pl.run eng ~inputs:attack hard_binary libredfat in
  match a.Redfat.verdict with
  | Redfat.Detected _ -> `Det
  | Redfat.Fault _ -> `Abort
  | Redfat.Finished _ -> `Miss

let table2x () =
  hr "Table 2x (extension): detection per check backend";
  let backends = Backend.Check_backend.all in
  let row name cases =
    let results =
      Pl.map eng
        (fun (prog, benign, attack) ->
          let bin = Pl.compile eng prog in
          let m = (Pl.run eng ~inputs:attack bin Memcheck).state in
          let mc = Baselines.Memcheck.errors m <> [] in
          let per_backend =
            List.map
              (fun backend ->
                let hard =
                  Pl.harden eng ~opts:{ Rw.optimized with Rw.backend } bin
                in
                t2x_classify hard.Rw.binary ~benign ~attack)
              backends
          in
          (mc, per_backend))
        cases
    in
    let total = List.length cases in
    let mc = List.length (List.filter fst results) in
    pf "%-26s %9s" name (Printf.sprintf "%d/%d" mc total);
    List.iteri
      (fun bi _ ->
        let of_kind k =
          List.length
            (List.filter (fun (_, pb) -> List.nth pb bi = k) results)
        in
        let det = of_kind `Det and ab = of_kind `Abort in
        pf " %9s"
          (if ab > 0 then Printf.sprintf "%d/%d+%d!" det total ab
           else Printf.sprintf "%d/%d" det total))
      backends;
    pf "\n%!"
  in
  pf "%-26s %9s" "attack class" "Memcheck";
  List.iter (fun b -> pf " %9s" (Backend.Check_backend.name b)) backends;
  pf "\n";
  row "CVE overflows"
    (List.map
       (fun (c : Workloads.Cve.case) ->
         (c.program, Some c.benign_inputs, c.attack_inputs))
       Workloads.Cve.all);
  row "CWE-122 heap overflow"
    (List.map
       (fun (c : Workloads.Juliet.case) ->
         (c.program, Some c.benign_inputs, c.attack_inputs))
       Workloads.Juliet.all);
  row "CWE-416 use-after-free"
    (List.map
       (fun (c : Workloads.Uaf.case) ->
         ( c.program,
           Some Workloads.Uaf.benign_inputs,
           Workloads.Uaf.attack_inputs ))
       Workloads.Uaf.all);
  row "reuse-after-free" [ (Workloads.Uaf.reuse_case, None, []) ];
  row "double free" [ (Workloads.Uaf.double_free_case, Some [ 0 ], [ 1 ]) ];
  (* seeded-bug classes surfaced by the fuzzing fleet (redfat fuzz) *)
  let fuzz_case id =
    let c = Workloads.Fuzzbugs.find id in
    (c.program, Some c.benign, c.attack)
  in
  row "CWE-125 OOB read (fuzz)" [ fuzz_case "oob-read" ];
  row "off-by-one write (fuzz)" [ fuzz_case "off-by-one" ];
  pf "(n/m+k!: k attack run(s) stopped by an allocator abort rather than a\n";
  pf " classified detection.  The spatial backends miss reuse-after-free —\n";
  pf " the slot is live again — and only abort on double free; the temporal\n";
  pf " lock-and-key backend classifies both.  Spatial bounds under temporal\n";
  pf " are slot-granular, so redzone-width overflows inside the slot are\n";
  pf " traded for the temporal coverage.)\n"

(* ------------------------------------------------------------------ *)
(* Figure 1: the CVE-2012-4295 walkthrough                             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  hr "Figure 1: CVE-2012-4295 (wireshark) walkthrough";
  let c = Workloads.Cve.wireshark in
  let bin = Pl.compile eng c.program in
  pf "model: %s\n" c.description;
  let base = (Pl.run eng ~inputs:c.benign_inputs bin Baseline).run in
  pf "benign run (speed=%d): outputs %s\n"
    (List.nth c.benign_inputs 1)
    (String.concat "," (List.map string_of_int base.outputs));
  let hard = Pl.harden eng bin in
  let attack = Pl.run eng hard.binary ~inputs:c.attack_inputs libredfat in
  pf "attack run (speed=%d) under RedFat: %s\n"
    (List.nth c.attack_inputs 1)
    (Redfat.verdict_to_string attack.verdict);
  let mc = (Pl.run eng bin ~inputs:c.attack_inputs Memcheck).state in
  pf "attack run under Memcheck: %d errors reported (redzone skipped)\n"
    (List.length (Baselines.Memcheck.errors mc))

(* ------------------------------------------------------------------ *)
(* Figure 2: the low-fat allocator memory layout                       *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  hr "Figure 2: low-fat allocator memory layout";
  let open Lowfat.Layout in
  pf "region size: %d GiB; %d low-fat size classes\n" (region_size lsr 30)
    num_classes;
  pf "%-8s %-30s %-10s\n" "region" "range" "class size";
  let show i =
    let sz = sizes_table.(i) in
    pf "#%-7d [%#14x, %#14x)  %s\n" i (region_start i) (region_end i)
      (if sz = max_int then "non-fat" else string_of_int sz)
  in
  List.iter show [ 0; 1; 2; 3; 4 ];
  pf "   ...\n";
  List.iter show
    [ num_classes - 1; num_classes; legacy_heap_region; stack_region ];
  let violations = ref 0 in
  for k = 1 to 20000 do
    let ptr = heap_lo + (k * 2654435761 land ((1 lsl 41) - 1)) in
    if is_fat ptr then begin
      let b = base ptr and s = size ptr in
      if not (b <= ptr && ptr < b + s && b mod s = 0) then incr violations
    end
  done;
  pf "base/size invariants over 20k random pointers: %d violations\n"
    !violations

(* ------------------------------------------------------------------ *)
(* Figure 3: object layout (metadata inside the redzone)               *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  hr "Figure 3: redzone/metadata object layout";
  let mem = Vm.Mem.create () in
  let rt = Rt.create mem in
  let p = Rt.malloc rt 40 in
  let b = Lowfat.Layout.base p in
  pf "malloc(40) returned %#x\n" p;
  pf "object base (via low-fat base(ptr)):   %#x\n" b;
  pf "slot size  (via low-fat size(ptr)):    %d\n" (Lowfat.Layout.size p);
  pf "metadata word at base (= malloc size): %d\n"
    (Vm.Mem.read mem ~addr:b ~len:8);
  pf "redzone: [%#x, %#x)  object: [%#x, %#x)  padding: %d bytes\n" b (b + 16)
    p (p + 40)
    (Lowfat.Layout.size p - 16 - 40);
  Rt.free rt p;
  pf "after free, metadata word: %d (0 = Free; UaF folds into bounds check)\n"
    (Vm.Mem.read mem ~addr:b ~len:8)

(* ------------------------------------------------------------------ *)
(* Figure 4: check schema cost breakdown                               *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  hr "Figure 4: instrumentation check, micro-op cost per variant";
  let open Rt.Cost in
  pf "step (1) access range:        %d\n" access_range;
  pf "step (2) low-fat base:        %d (+%d null test)\n" lowfat_base null_test;
  pf "step (3) metadata load:       %d\n" metadata_load;
  pf "step (4) size hardening:      %d (optional, -size removes)\n" size_harden;
  pf "step (4) bounds, merged UB:   %d (vs %d branchy; paper §4.2)\n"
    bounds_merged bounds_branchy;
  pf "scratch save/restore:         %d per register, %d for flags\n" per_save
    flags_save;
  let full =
    access_range + lowfat_base + null_test + metadata_load + size_harden
    + bounds_merged
  in
  pf "full (Redzone)+(LowFat) check, no saves: %d micro-ops\n" full;
  pf "fallback path (non-fat ptr) adds:        %d\n" (lowfat_base + null_test);
  pf "conservative trampoline adds:            %d (3 saves + flags)\n"
    ((3 * per_save) + flags_save)

(* ------------------------------------------------------------------ *)
(* Figure 5: the two-phase profiling workflow                          *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  hr "Figure 5: profile-based false positive elimination workflow";
  let open Minic.Build in
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 32));
            for_ "j" (i 0) (i 32) [ set (v "a") (v "j") (v "j") ];
            (* anti-idiom: (a - 4*8)[j + 4], always-OOB base pointer *)
            for_ "j" (i 0) (i 8)
              [ Minic.Ast.Store (E8, v "a" -: i 32, v "j" +: i 4, v "j") ];
            let_ "s" (i 0);
            for_ "j" (i 0) (i 32) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
            print_ (v "s");
            return_ (i 0);
          ];
      ]
  in
  let bin = Pl.compile eng prog in
  pf "step (1) profiling phase: instrument prog.orig, run the test suite\n";
  let prof = Pl.harden eng ~opts:Rw.profiling_build bin in
  let hrun = Pl.run eng prof.binary Profiling in
  let allow = Rt.allowlist hrun.state in
  let failing = Rt.lowfat_failing_sites hrun.state in
  pf "  allow.lst: %d sites pass (LowFat); %d sites fail -> excluded: %s\n"
    (List.length allow) (List.length failing)
    (String.concat ", " (List.map (Printf.sprintf "%#x") failing));
  pf "step (2) production phase: rewrite with the allow-list\n";
  let hard = Pl.harden eng ~opts:(Rw.production ~allowlist:allow) bin in
  pf "  %d sites get (Redzone)+(LowFat), %d get (Redzone)-only\n"
    hard.stats.full_sites hard.stats.redzone_sites;
  let prod = Pl.run eng hard.binary libredfat in
  pf "  production run: %s (no false positive)\n"
    (Redfat.verdict_to_string prod.verdict)

(* ------------------------------------------------------------------ *)
(* Figures 6-7: batching and merging trampoline economics              *)
(* ------------------------------------------------------------------ *)

(* the exact instruction sequence of paper Example 2, as a binary *)
let example2_binary () : Binfmt.Relf.t =
  let open X64 in
  let items =
    [
      (* rax = malloc(64), rbx = malloc(64) *)
      Asm.I (Isa.Mov_ri (Isa.rdi, 64));
      Asm.I (Isa.Callrt Isa.Malloc);
      Asm.I (Isa.Mov_rr (Isa.r14, Isa.rax));
      Asm.I (Isa.Mov_ri (Isa.rdi, 64));
      Asm.I (Isa.Callrt Isa.Malloc);
      Asm.I (Isa.Mov_rr (Isa.rbx, Isa.rax));
      Asm.I (Isa.Mov_rr (Isa.rax, Isa.r14));
      Asm.I (Isa.Mov_ri (Isa.r10, 1));
      Asm.I (Isa.Mov_ri (Isa.r8, 2));
      (* .Linstruction1-4 of Example 2 *)
      Asm.I (Isa.Store (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rbx (), Isa.r10));
      Asm.I (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r8));
      Asm.I (Isa.Store_i (Isa.W8, Isa.mem ~disp:8 ~base:Isa.rax (), 0));
      Asm.I (Isa.Store_i (Isa.W8, Isa.mem ~disp:16 ~base:Isa.rax (), 0));
      Asm.I Isa.Ret;
    ]
  in
  let code, _ = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  {
    Binfmt.Relf.entry = Lowfat.Layout.code_base;
    pic = false;
    stripped = true;
    sections =
      [
        Binfmt.Relf.section ~executable:true ~name:".text"
          ~addr:Lowfat.Layout.code_base code;
      ];
  }

let fig67 () =
  hr "Figures 6-7: check batching and merging (paper Example 2)";
  let bin = example2_binary () in
  let show name opts =
    let r = Pl.harden eng ~opts bin in
    pf
      "%-12s trampolines=%d checks=%d jump-patches=%d (total jumps %d) traps=%d\n%!"
      name r.stats.trampolines r.stats.checks_emitted r.stats.jump_patches
      (r.stats.jump_patches * 2)
      r.stats.trap_patches;
    let hrun = Pl.run eng r.binary libredfat in
    (match hrun.verdict with
     | Redfat.Finished _ -> ()
     | v -> pf "  unexpected: %s\n" (Redfat.verdict_to_string v))
  in
  show "(b) naive" Rw.unoptimized;
  show "(c) batched" Rw.with_batch;
  show "(d) merged" Rw.optimized;
  pf "(paper: naive = 4 trampolines / 8 jumps; batched = 1 trampoline / 2\n";
  pf " jumps; merged folds the three rax-based checks into one)\n"

(* ------------------------------------------------------------------ *)
(* Figure 8 + §7.3: Kraken under write-hardened Chrome, scalability    *)
(* ------------------------------------------------------------------ *)

let chrome_opts = { Rw.optimized with instrument_reads = false }
let chrome_rt = { log_opts with size_harden = false; check_reads = false }

let fig8 () =
  hr "Figure 8: Kraken benchmarks under write-only hardening";
  pf "%-26s %9s %9s %9s\n" "benchmark" "baseline" "hardened" "overhead";
  let rows =
    Pl.map eng
      (fun (b : Workloads.Kraken.bench) ->
        let t0 = wall () in
        let bin = Pl.compile eng (Workloads.Kraken.program b) in
        let inputs = Workloads.Kraken.inputs b in
        let base = (Pl.run eng ~inputs bin Baseline).run in
        let hard = Pl.harden eng ~opts:chrome_opts bin in
        let hrun = Pl.run eng ~inputs hard.binary (Hardened chrome_rt) in
        (match hrun.verdict with
         | Redfat.Finished _ -> ()
         | v -> failwith (b.name ^ ": " ^ Redfat.verdict_to_string v));
        let ov = float_of_int hrun.run.cycles /. float_of_int base.cycles in
        target ("kraken:" ^ b.name) ~cycles:base.cycles
          ~overheads:[ ("write-only", ov) ] t0;
        (b.name, base.cycles, hrun.run.cycles, ov))
      Workloads.Kraken.all
  in
  List.iter
    (fun (name, base, hardc, ov) ->
      pf "%-26s %9d %9d %8.0f%%\n%!" name base hardc (100. *. ov))
    rows;
  let ovs = List.map (fun (_, _, _, ov) -> ov) rows in
  pf "%-26s %9s %9s %8.0f%%\n" "geometric mean" "" "" (100. *. geomean ovs);
  pf "(paper geometric mean: 128%%)\n";
  hr "Section 7.3 scalability: the Chrome-scale binary";
  let bin = Pl.compile eng (Workloads.Chrome.program ()) in
  pf "input binary: %d bytes of code, %d instructions\n"
    (Binfmt.Relf.code_size bin)
    (X64.Disasm.length
       (X64.Disasm.sweep_stream
          ~addr:(Binfmt.Relf.text_exn bin).addr
          (Binfmt.Relf.text_exn bin).bytes));
  let t0 = wall () in
  let hard = Pl.harden eng ~opts:chrome_opts bin in
  let dt = wall () -. t0 in
  pf "rewrite time: %.2fs%s\n" dt
    (if Pl.cache_enabled eng then " (artifact-cached on warm runs)" else "");
  Format.printf "%a@." Rw.pp_stats hard.stats;
  List.iter
    (fun (name, inputs) ->
      let base = (Pl.run eng ~inputs bin Baseline).run in
      let hrun = Pl.run eng ~inputs hard.binary (Hardened chrome_rt) in
      pf "workload %-8s: %s, overhead %.2fx\n" name
        (Redfat.verdict_to_string hrun.verdict)
        (float_of_int hrun.run.cycles /. float_of_int base.cycles))
    Workloads.Chrome.workloads

(* ------------------------------------------------------------------ *)
(* §7.1 false positives and detected errors                            *)
(* ------------------------------------------------------------------ *)

let paper_fps =
  [ ("perlbench", 1); ("gcc", 14); ("gobmk", 1); ("povray", 1); ("bwaves", 5);
    ("gromacs", 3); ("GemsFDTD", 32); ("wrf", 26); ("calculix", 2) ]

let fp_and_bug_sites (b : Workloads.Spec.bench) =
  let bin = Pl.compile eng (Workloads.Spec.program b) in
  let refs = Workloads.Spec.ref_inputs b in
  let prof = Pl.harden eng ~opts:Rw.profiling_build bin in
  let fpr = Pl.run eng ~inputs:refs prof.binary Profiling in
  let lf_fail = Rt.lowfat_failing_sites fpr.state in
  (* sites that also fail redzone-only checking are real bugs, not FPs *)
  let rz =
    Pl.run eng ~inputs:refs prof.binary
      (Hardened { log_opts with lowfat = false })
  in
  let bugs =
    List.map (fun (e : Rt.access_error) -> e.site) (Rt.errors rz.state)
    |> List.sort_uniq compare
  in
  let fps = List.filter (fun s -> not (List.mem s bugs)) lf_fail in
  (fps, bugs, Rt.errors rz.state)

let fps () =
  hr "Sec 7.1 false positives with full checking (no allow-list)";
  pf "%-12s %12s %12s\n" "benchmark" "measured FPs" "paper FPs";
  let rows =
    Pl.map eng
      (fun (b : Workloads.Spec.bench) ->
        let fp_sites, _, _ = fp_and_bug_sites b in
        (b.name, List.length fp_sites))
      Workloads.Spec.all
  in
  List.iter
    (fun (name, measured) ->
      let paper = Option.value ~default:0 (List.assoc_opt name paper_fps) in
      if measured > 0 || paper > 0 then
        pf "%-12s %12d %12d\n%!" name measured paper)
    rows

let detected () =
  hr "Sec 7.1 detected (real) errors in the SPEC stand-ins";
  let rows =
    Pl.map eng
      (fun name ->
        let b = Workloads.Spec.find name in
        let _, bugs, errors = fp_and_bug_sites b in
        (b.name, bugs, errors))
      [ "calculix"; "wrf" ]
  in
  List.iter
    (fun (name, bugs, errors) ->
      pf "%s: %d real out-of-bounds read error(s)\n" name (List.length bugs);
      List.iter
        (fun (e : Rt.access_error) ->
          if List.mem e.site bugs then
            pf "  site %#x: %s at %#x\n" e.site (Rt.kind_name e.kind) e.addr)
        errors)
    rows;
  pf "(paper: calculix has 4 array[-1] read underflows, wrf 1 read overflow;\n";
  pf " both are detected by RedFat and Memcheck)\n"

(* ------------------------------------------------------------------ *)
(* Static rewriting statistics across the suite (§7.3 flavour)          *)
(* ------------------------------------------------------------------ *)

let stats () =
  hr "Static rewriting statistics (full instrumentation, all SPEC binaries)";
  pf "%-11s %7s %7s %7s %6s %7s %6s %6s %6s %6s %9s\n" "binary" "instrs"
    "memops" "elim" "gelim" "sites" "zsave" "tramps" "evict" "traps"
    "size-ovh";
  let tot = ref (0, 0, 0, 0) in
  let rows =
    Pl.map eng
      (fun (b : Workloads.Spec.bench) ->
        let bin = Pl.compile eng (Workloads.Spec.program b) in
        let r = Pl.harden eng bin in
        (b.name, r.stats))
      Workloads.Spec.all
  in
  List.iter
    (fun (name, (s : Rw.stats)) ->
      let ovh =
        float_of_int (s.text_bytes + s.tramp_bytes)
        /. float_of_int s.text_bytes
      in
      let a, bb, c, d = !tot in
      tot := (a + s.instrumented, bb + s.jump_patches, c + s.trap_patches,
              d + s.evictions);
      pf "%-11s %7d %7d %7d %6d %7d %6d %6d %6d %6d %8.2fx\n" name
        s.instrs_total s.mem_ops s.eliminated s.eliminated_global
        s.instrumented s.zero_save_sites s.trampolines s.evictions
        s.trap_patches ovh)
    rows;
  let sites, jumps, traps, evict = !tot in
  pf "totals: %d sites instrumented; %d jump patches (%d via eviction), %d\n"
    sites jumps evict traps;
  pf "trap-table fallbacks (%.1f%% of patches)\n"
    (100. *. float_of_int traps /. float_of_int (jumps + traps))

(* ------------------------------------------------------------------ *)
(* Extension: CWE-416 use-after-free suite                              *)
(* ------------------------------------------------------------------ *)

let uaf () =
  hr "Extension: CWE-416 use-after-free (beyond the paper's Table 2)";
  let total = List.length Workloads.Uaf.all in
  let results =
    Pl.map eng
      (fun (c : Workloads.Uaf.case) ->
        let bin = Pl.compile eng c.program in
        let hard = Pl.harden eng bin in
        let b =
          Pl.run eng ~inputs:Workloads.Uaf.benign_inputs hard.binary libredfat
        in
        let benign_ok =
          match b.verdict with Redfat.Finished 0 -> true | _ -> false
        in
        let a =
          Pl.run eng ~inputs:Workloads.Uaf.attack_inputs hard.binary libredfat
        in
        let rf =
          match a.verdict with Redfat.Detected _ -> true | _ -> false
        in
        let m =
          (Pl.run eng ~inputs:Workloads.Uaf.attack_inputs bin Memcheck).state
        in
        (benign_ok, rf, Baselines.Memcheck.errors m <> []))
      Workloads.Uaf.all
  in
  let rf = ref 0 and mc = ref 0 and benign_bad = ref 0 in
  List.iter
    (fun (benign_ok, rfd, mcd) ->
      if not benign_ok then incr benign_bad;
      if rfd then incr rf;
      if mcd then incr mc)
    results;
  pf "%-34s %d/%d detected (Memcheck: %d/%d); %d benign failures\n"
    "CWE-416-Use-After-Free" !rf total !mc total !benign_bad;
  (* the slot-reuse case: spatial state word vs lock-and-key *)
  let bin = Pl.compile eng Workloads.Uaf.reuse_case in
  let hard = Pl.harden eng bin in
  let r = Pl.run eng hard.binary libredfat in
  let hard_t =
    Pl.harden eng
      ~opts:{ Rw.optimized with Rw.backend = Backend.Check_backend.Temporal }
      bin
  in
  let rt = Pl.run eng hard_t.binary libredfat in
  let m = (Pl.run eng bin Memcheck).state in
  let show v missed =
    match v with Redfat.Detected _ -> "detected" | _ -> missed
  in
  pf "slot-reuse case:   spatial %s; temporal %s; Memcheck %s\n"
    (show r.verdict "missed (slot reused, state word live again)")
    (show rt.verdict "MISSED")
    (if Baselines.Memcheck.errors m <> [] then "detected" else "missed");
  pf "(the spatial backends' zeroed state word cannot survive slot reuse;\n";
  pf " the temporal backend's stale key can — `table2x` has the full\n";
  pf " backend-by-attack matrix, with Memcheck kept as the comparator)\n"

(* ------------------------------------------------------------------ *)
(* §7.4: shared objects and separate instrumentation                    *)
(* ------------------------------------------------------------------ *)

let sec74 () =
  hr "Section 7.4: separate instrumentation of executable and library";
  let lib_origin = Lowfat.Layout.code_base + 0x10_0000 in
  let lib_tramp = Lowfat.Layout.trampoline_base + 0x100_0000 in
  let open Minic.Build in
  let lib_bin, lib_syms =
    Minic.Codegen.compile_with_symbols ~origin:lib_origin ~shared:true
      (Minic.Ast.program
         [
           Minic.Ast.func ~name:"decode" ~params:[ "buf"; "idx" ]
             [ Minic.Ast.Store (E8, v "buf", v "idx", i 0x41); return_ (i 1) ];
         ])
  in
  let main_bin =
    Minic.Codegen.compile ~externs:lib_syms
      (Minic.Ast.program
         [
           Minic.Ast.func ~name:"main"
             [
               let_ "buf" (alloc_elems (i 8));
               let_ "post" (alloc_elems (i 8));
               expr (call "decode" [ v "buf"; Minic.Ast.Input ]);
               print_ (idx (v "post") (i 0));
               return_ (i 0);
             ];
         ])
  in
  let attack = [ 12 ] in
  let show name main lib =
    let hrun = Redfat.run ~libs:[ lib ] ~inputs:attack main libredfat in
    pf "%-44s %s\n" name (Redfat.verdict_to_string hrun.verdict)
  in
  let hard_main = (Pl.harden eng main_bin).binary in
  let hard_lib =
    (Pl.harden eng ~tramp_base:lib_tramp ~opts:Rw.optimized lib_bin).binary
  in
  pf "attack input writes buf[12] inside libdecoder.so's decode():\n";
  show "neither module instrumented" main_bin lib_bin;
  show "main instrumented, library NOT" hard_main lib_bin;
  show "main AND library instrumented" hard_main hard_lib;
  pf "(as in the paper: only explicitly instrumented modules are protected;\n";
  pf " shared objects are instrumented separately, with their own trampolines)\n"

(* ------------------------------------------------------------------ *)
(* Ablations of the design decisions DESIGN.md calls out               *)
(* ------------------------------------------------------------------ *)

let ablation () =
  hr "Ablations (design decisions of sections 3-4)";
  let benches = [ "mcf"; "milc"; "povray" ] in
  pf "%-10s %9s | %-28s %-22s %-22s\n" "bench" "baseline"
    "state(): lowfat-meta vs shadow" "merged-UB vs branchy"
    "randomized heap";
  List.iter
    (fun name ->
      let b = Workloads.Spec.find name in
      let bin = Pl.compile eng (Workloads.Spec.program b) in
      let refs = Workloads.Spec.ref_inputs b in
      let base = (Pl.run eng ~inputs:refs bin Baseline).run in
      let hard = Pl.harden eng bin in
      let cyc ?random rt =
        let hrun =
          Pl.run eng ~inputs:refs hard.binary (Hardened { rt with random })
        in
        (match hrun.verdict with
         | Redfat.Finished _ -> ()
         | v -> failwith (Redfat.verdict_to_string v));
        (float_of_int hrun.run.cycles /. float_of_int base.cycles, hrun)
      in
      let meta, _ = cyc log_opts in
      let shadow_ov, shr =
        cyc { log_opts with state_impl = Rt.Asan_shadow }
      in
      let merged, _ = cyc log_opts in
      let branchy, _ = cyc { log_opts with merged_ub = false } in
      let plain, _ = cyc log_opts in
      let rand, _ = cyc ~random:1337 log_opts in
      pf "%-10s %9d | meta %.2fx shadow %.2fx (%dKiB) | %.2fx vs %.2fx | %.2fx vs %.2fx\n%!"
        name base.cycles meta shadow_ov
        (shr.state.shadow.shadow_bytes / 1024)
        merged branchy plain rand)
    benches;
  pf "(lowfat-meta shares base(ptr) with the LowFat check and needs no\n";
  pf " shadow map; merged-UB saves a branch per check; randomization is\n";
  pf " within noise of the deterministic allocator.)\n"

(* ------------------------------------------------------------------ *)
(* serve: synthetic-fleet traffic through the hardening daemon         *)
(* ------------------------------------------------------------------ *)

(* Zipf-distributed request stream over the Table-1 targets plus the
   example MiniC sources, processed sequentially through
   Serve.Server.handle so the hit/miss classification -- and therefore
   the gated serve.warm.hit_permille counter -- is identical on every
   run.  Wall-clock figures (throughput, latency percentiles) are
   reported but never gated. *)

let serve () =
  hr "serve: synthetic-fleet traffic simulation (Zipf over Table-1 targets)";
  let t0 = wall () in
  let srv = Serve.Server.create eng in
  (* deterministic 48-bit LCG (java.util.Random constants) *)
  let state = ref 0x5DEECE66D in
  let rand () =
    state := ((!state * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    !state lsr 16
  in
  let fleet =
    Array.of_list
      (List.map
         (fun (b : Workloads.Spec.bench) -> "spec:" ^ b.name)
         Workloads.Spec.all
      @ List.filter Sys.file_exists
          [
            "examples/victim.mc"; "examples/interp.mc";
            "examples/fortran_idiom.mc";
          ])
  in
  let n = Array.length fleet in
  (* Zipf(1.0): weight of rank i is 1/(i+1); fleet order = rank order *)
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i _ ->
      total := !total +. (1.0 /. float (i + 1));
      cum.(i) <- !total)
    fleet;
  let pick () =
    let u = float (rand ()) /. 4294967296.0 *. !total in
    let rec find i = if i >= n - 1 || cum.(i) >= u then i else find (i + 1) in
    fleet.(find 0)
  in
  let request ~id ~op ~tgt =
    Obs.Json.(
      to_string (Obj [ ("id", Str id); ("op", Str op); ("target", Str tgt) ]))
  in
  let field name line =
    match Obs.Json.parse line with
    | Error _ -> None
    | Ok j -> Obs.Json.member name j
  in
  let int_field name line =
    match Option.bind (field name line) Obs.Json.to_num with
    | Some x -> int_of_float x
    | None -> 0
  in
  (* cold phase: every target hardened once (first touch only ghosts,
     so the hot tier admits on the warm phase's second touch) *)
  let checks = ref 0 and cold_failed = ref 0 in
  Array.iteri
    (fun i tgt ->
      let resp, ok =
        Serve.Server.handle srv
          (request ~id:(Printf.sprintf "c%d" i) ~op:"harden" ~tgt)
      in
      if ok then checks := !checks + int_field "checks_emitted" resp
      else incr cold_failed)
    fleet;
  let cold_s = wall () -. t0 in
  (* warm phase: Zipf-distributed fleet traffic, 80/15/5 op mix *)
  let warm_n = 2000 in
  let lat = Array.make warm_n 0.0 in
  let warm_hits = ref 0 and warm_failed = ref 0 in
  let t_warm = wall () in
  for i = 0 to warm_n - 1 do
    let tgt = pick () in
    let op =
      let r = rand () mod 100 in
      if r < 80 then "harden" else if r < 95 then "verify" else "trace"
    in
    let t1 = wall () in
    let resp, ok =
      Serve.Server.handle srv (request ~id:(Printf.sprintf "w%d" i) ~op ~tgt)
    in
    lat.(i) <- (wall () -. t1) *. 1e6;
    if not ok then incr warm_failed
    else if
      Option.bind (field "cache" resp) Obs.Json.to_str = Some "hit"
    then incr warm_hits
  done;
  let warm_s = wall () -. t_warm in
  Array.sort compare lat;
  let percentile p =
    let i = int_of_float (Float.ceil (p /. 100.0 *. float warm_n)) - 1 in
    lat.(max 0 (min (warm_n - 1) i))
  in
  let p50 = percentile 50.0
  and p95 = percentile 95.0
  and p99 = percentile 99.0 in
  let rps = float warm_n /. warm_s in
  let st = Serve.Lru.stats (Serve.Server.lru srv) in
  let permille = !warm_hits * 1000 / warm_n in
  pf "cold:  %d targets in %.2fs (%d checks emitted, %d failed)\n" n cold_s
    !checks !cold_failed;
  pf "warm:  %d requests in %.2fs = %.0f req/s (wall-clock: not gated)\n"
    warm_n warm_s rps;
  pf "       hit rate %d/%d = %.1f%% (acceptance floor: 90%%)\n" !warm_hits
    warm_n (float permille /. 10.0);
  pf "       latency p50 %.0fus  p95 %.0fus  p99 %.0fus\n" p50 p95 p99;
  pf
    "hot tier: %d hit / %d miss / %d coalesced; %d admitted, %d evicted, %d \
     bytes\n"
    st.Serve.Lru.hits st.misses st.coalesced st.admitted st.evictions st.bytes;
  target "serve:fleet"
    ~counters:
      [
        ("serve.requests", n + warm_n);
        ("serve.warm.requests", warm_n);
        ("serve.warm.hits", !warm_hits);
        ("serve.warm.hit_permille", permille);
        ("serve.failed", !cold_failed + !warm_failed);
        ("checks_emitted", !checks);
        ("serve.hot.admitted", st.admitted);
        ("serve.hot.evictions", st.evictions);
        ("serve.p50_us", int_of_float p50);
        ("serve.p95_us", int_of_float p95);
        ("serve.p99_us", int_of_float p99);
        ("serve.throughput_rps", int_of_float rps);
      ]
    t0

(* --- rebuild: function-granular incremental re-hardening ------------ *)

(* The nightly-rebuild scenario: harden the 29 SPEC kernels cold, then
   simulate two "nights" in which exactly one function of one
   binary changes (a length-preserving immediate bump, so the
   perturbation is small the way a real nightly delta is) and the
   whole fleet is re-hardened against the warm function-granular
   cache.  Reports the worst-night artifact reuse rate
   (rebuild.fns_reused_permille, gated: may never decrease) and the
   rewrite time saved.  The run fails (exit 1) unless the cold pass
   shares a blueprint, every incremental result is byte-identical --
   binary, .elimtab and verify verdict -- to a cold monolithic rewrite
   under every backend, each night partitions once, and every night
   reuses at least [rebuild_min_reuse] permille of the artifacts. *)

let rebuild_nights = 2
let rebuild_min_reuse = 900

(* a failed rebuild check exits 1 with its reason on stderr, so the
   reason shows even where stdout is discarded (make bench-gate) *)
let rebuild_fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("rebuild: " ^ s); exit 1) fmt

let rebuild_wipe_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)

(* A deterministic one-function perturbation: bump the last in-text
   [Mov_ri] immediate that stays small, out of code-pointer range and
   in the same encoded length, and splice the re-encoded instruction
   over the old bytes.  Returns the perturbed binary and the site. *)
let rebuild_perturb (bin : Binfmt.Relf.t) : (Binfmt.Relf.t * int) option =
  let text = Binfmt.Relf.text_exn bin in
  let text_end = text.addr + String.length text.bytes in
  let in_text v = v >= text.addr && v < text_end in
  let s = X64.Disasm.sweep_stream ~addr:text.addr text.bytes in
  let eligible =
    List.filter_map
      (fun k ->
        let a = s.addrs.(k) and len = s.lens.(k) in
        match s.instrs.(k) with
        | X64.Isa.Mov_ri (r, v)
          when v >= 0 && v < 0x10000
               && (not (in_text v))
               && (not (in_text (v + 1)))
               && X64.Encode.length (X64.Isa.Mov_ri (r, v + 1)) = len ->
          Some (a, r, v, len)
        | _ -> None)
      (List.init (X64.Disasm.length s) Fun.id)
  in
  match List.rev eligible with
  | [] -> None
  | (a, r, v, len) :: _ ->
    let enc = X64.Encode.encode_seq ~addr:a [ X64.Isa.Mov_ri (r, v + 1) ] in
    if String.length enc <> len then None
    else begin
      let by = Bytes.of_string text.bytes in
      Bytes.blit_string enc 0 by (a - text.addr) len;
      let sections =
        List.map
          (fun (s : Binfmt.Relf.section) ->
            if s.name = ".text" then { s with bytes = Bytes.to_string by }
            else s)
          bin.Binfmt.Relf.sections
      in
      Some ({ bin with sections }, a)
    end

let rebuild () =
  hr "rebuild (function-granular incremental re-hardening)";
  let t0 = wall () in
  let dir = Filename.concat "_redfat_cache" "rebuild" in
  (* a fresh cache dir: the reuse counters must measure this run alone *)
  rebuild_wipe_dir dir;
  let eng2 = Pl.create ~jobs:1 ~cache:true ~cache_dir:dir () in
  Fun.protect ~finally:(fun () -> Pl.close eng2) @@ fun () ->
  let fleet =
    Array.of_list
      (List.map
         (fun (b : Workloads.Spec.bench) ->
           (b.name, ref (Pl.compile eng2 (Workloads.Spec.program b))))
         Workloads.Spec.all)
  in
  let counter name =
    Option.value ~default:0
      (List.assoc_opt name (Obs.counters (Pl.obs eng2)))
  in
  (* cold: the whole fleet, nothing reusable *)
  let tc = wall () in
  Array.iter (fun (_, rbin) -> ignore (Pl.harden eng2 !rbin)) fleet;
  let cold_s = wall () -. tc in
  (* identical functions at identical placements alias across
     binaries, so even the cold pass can reuse a few artifacts *)
  let fns_total = counter "harden.fn.miss" + counter "harden.fn.hit" in
  pf "cold:  %d binaries / %d functions hardened in %.2fs (%d aliased)\n"
    (Array.length fleet) fns_total cold_s
    (counter "harden.fn.hit");
  pf "blueprints: %d hit / %d miss / %d unique shapes\n"
    (counter "blueprint.hit") (counter "blueprint.miss")
    (counter "blueprint.unique");
  (* identically shaped functions (e.g. a kernel and its ref-only
     clone) must share one planning pass even cold *)
  if counter "blueprint.hit" = 0 then
    rebuild_fail "no blueprint sharing observed on the cold pass";
  let worst = ref 1000
  and warm_last = ref 0.0
  and failures = ref 0 in
  for night = 0 to rebuild_nights - 1 do
    (* pick tonight's perturbation target round-robin, skipping
       binaries with no eligible immediate *)
    let nfleet = Array.length fleet in
    let rec pick k tries =
      if tries = nfleet then None
      else
        let _, rbin = fleet.(k) in
        match rebuild_perturb !rbin with
        | Some (bin', site) -> Some (k, bin', site)
        | None -> pick ((k + 1) mod nfleet) (tries + 1)
    in
    match pick (night mod nfleet) 0 with
    | None -> rebuild_fail "no perturbable benchmark in the fleet"
    | Some (k, bin', site) ->
      let name, rbin = fleet.(k) in
      rbin := bin';
      let h0 = counter "harden.fn.hit" and m0 = counter "harden.fn.miss" in
      let p0 = counter "harden.slices.miss" in
      let tw = wall () in
      let warm_perturbed = ref 0.0 in
      Array.iteri
        (fun i (_, rb) ->
          let t = wall () in
          ignore (Pl.harden eng2 !rb);
          if i = k then warm_perturbed := wall () -. t)
        fleet;
      warm_last := wall () -. tw;
      let hits = counter "harden.fn.hit" - h0
      and misses = counter "harden.fn.miss" - m0 in
      let permille =
        if hits + misses = 0 then 0 else hits * 1000 / (hits + misses)
      in
      worst := min !worst permille;
      (* the incremental artifact must be indistinguishable from a
         cold monolithic rewrite, under every backend *)
      let cold_direct = ref 0.0 in
      List.iter
        (fun backend ->
          let opts = { Rw.optimized with Rw.backend } in
          let inc = Pl.harden eng2 ~opts !rbin in
          let t = wall () in
          let cold = Rw.rewrite opts !rbin in
          if backend = Backend.Check_backend.default then
            cold_direct := wall () -. t;
          let ser (r : Rw.t) = Binfmt.Relf.serialize r.Rw.binary in
          let tab (r : Rw.t) =
            match
              Binfmt.Relf.find_section r.Rw.binary
                Dataflow.Elimtab.section_name
            with
            | Some s -> s.bytes
            | None -> ""
          in
          let verdict (r : Rw.t) =
            match Rw.verify r.Rw.binary with
            | Ok rep -> Redfat.Verify.ok rep
            | Error _ -> false
          in
          let bname = Backend.Check_backend.name backend in
          if ser inc <> ser cold then begin
            incr failures;
            Printf.eprintf
              "night %d: %s [%s] FAIL: incremental binary differs from cold\n"
              night name bname
          end
          else if tab inc <> tab cold then begin
            incr failures;
            Printf.eprintf "night %d: %s [%s] FAIL: .elimtab differs from cold\n"
              night name bname
          end
          else if not (verdict inc && verdict cold) then begin
            incr failures;
            Printf.eprintf "night %d: %s [%s] FAIL: soundness audit failed\n"
              night name bname
          end)
        Backend.Check_backend.all;
      pf
        "night %d: %s perturbed @0x%x -- %d/%d functions reused (%d \
         permille)\n"
        night name site hits (hits + misses) permille;
      pf "         fleet re-hardened in %.1f ms vs %.1f ms cold"
        (!warm_last *. 1000.) (cold_s *. 1000.);
      if !warm_last > 0.0 then pf " (%.1fx faster)" (cold_s /. !warm_last);
      pf "\n";
      pf "         perturbed target alone: incremental %.1f ms vs %.1f ms \
          cold monolithic\n"
        (!warm_perturbed *. 1000.) (!cold_direct *. 1000.);
      (* the partition is memoised per binary: the perturbed binary is
         swept once, and its hardens under the other backends reuse it *)
      let partitions = counter "harden.slices.miss" - p0 in
      pf "         partitions: %d (harden.slices.miss)\n" partitions;
      if partitions <> 1 then
        rebuild_fail "night %d partitioned %d times, expected 1" night
          partitions
  done;
  if !failures > 0 then rebuild_fail "%d equivalence failure(s)" !failures;
  pf "reuse: worst night %d permille (acceptance floor %d)\n" !worst
    rebuild_min_reuse;
  if !worst < rebuild_min_reuse then
    rebuild_fail "artifact reuse below the %d permille floor" rebuild_min_reuse;
  (* the rewriter's allocation per instruction: one direct rewrite and
     audit of the Chrome-scale binary, counted on this domain so that
     [--jobs] cannot move it.  No other experiment plans Chrome's whole
     text under [optimized], so the rewrite plans cold *)
  let chrome = Workloads.Chrome.binary () in
  let w0 = Gc.minor_words () in
  let r = Rw.rewrite Rw.optimized chrome in
  let audited = Rw.verify r.Rw.binary in
  let words = Gc.minor_words () -. w0 in
  (match audited with
   | Ok rep when Redfat.Verify.ok rep -> ()
   | _ -> rebuild_fail "the Chrome-scale rewrite fails its audit");
  let words_per_instr =
    Float.to_int (Float.round (words /. float r.Rw.stats.instrs_total))
  in
  pf "allocation: %d minor words per instruction (Chrome rewrite + audit)\n"
    words_per_instr;
  target "rebuild:fleet"
    ~counters:
      [
        ("rebuild.nights", rebuild_nights);
        ("rebuild.fns_total", fns_total);
        ("rebuild.fns_reused_permille", !worst);
        ("rebuild.blueprint_hits", counter "blueprint.hit");
        ("rebuild.blueprint_unique", counter "blueprint.unique");
        ("rebuild.minor_words_per_instr", words_per_instr);
        (* wall-clock facts: reported, never gated *)
        ("rebuild.cold_ms", int_of_float (cold_s *. 1000.));
        ("rebuild.warm_ms", int_of_float (!warm_last *. 1000.));
      ]
    t0

(* ------------------------------------------------------------------ *)
(* Fuzz: the coverage-guided campaign fleet, checks as the oracle      *)
(* ------------------------------------------------------------------ *)

(* Per-backend smoke campaigns over the seeded-bug suite plus the two
   parser campaigns, with a fixed (seed, budget) so the whole matrix —
   and the fuzz.* counters bench_diff gates on — is deterministic for
   any --jobs.  bench/baseline.json pins the floor. *)
let fuzz () =
  hr "Fuzz: deterministic smoke campaigns (checks as the oracle)";
  let config = { Fuzz.Campaign.default_config with budget = 400; seed = 7 } in
  (* per-campaign counters summed key by key, in their own order *)
  let agg reports =
    match List.map Fuzz.Campaign.counters reports with
    | [] -> []
    | c :: cs ->
      List.fold_left (List.map2 (fun (k, a) (_, b) -> (k, a + b))) c cs
  in
  let show bname (r : Fuzz.Campaign.report) =
    pf "%-9s %-14s %6d %8d %6d %7d %5d\n" bname r.r_target r.r_execs r.r_crashes
      r.r_cov_edges r.r_corpus (List.length r.r_bugs);
    List.iter (fun b -> pf "  %s\n" (Fuzz.Campaign.bug_summary b)) r.r_bugs
  in
  pf "%-9s %-14s %6s %8s %6s %7s %5s\n" "backend" "target" "execs" "crashes"
    "edges" "corpus" "bugs";
  List.iter
    (fun backend ->
      let t0 = wall () in
      let bname = Backend.Check_backend.name backend in
      let reports =
        List.map
          (fun (c : Workloads.Fuzzbugs.case) ->
            let bin = Pl.compile eng c.program in
            let hard = Pl.harden eng ~opts:{ Rw.optimized with Rw.backend } bin in
            Fuzz.Campaign.run_exec eng ~config ~target:("bug:" ^ c.id)
              hard.Rw.binary)
          Workloads.Fuzzbugs.all
      in
      List.iter (show bname) reports;
      target ("fuzz:" ^ bname) ~counters:(agg reports) t0)
    Backend.Check_backend.all;
  (* the parser campaigns: typed parse.* rejections are the triage
     contract; anything else escaping the parser would show as run.fault *)
  let t0 = wall () in
  let relf_seed =
    Binfmt.Relf.serialize
      (Pl.compile eng (Workloads.Fuzzbugs.find "oob-write").program)
  in
  let minic_seed = "func main() { let x = input(); print(x); return 0; }" in
  let parse_reports =
    [
      Fuzz.Campaign.run_parse eng ~config ~which:Fuzz.Campaign.Relf_parser
        ~seeds:[ relf_seed; "" ] ();
      Fuzz.Campaign.run_parse eng ~config ~which:Fuzz.Campaign.Minic_parser
        ~seeds:[ minic_seed; "" ] ();
    ]
  in
  List.iter (show "parse") parse_reports;
  target "fuzz:parse" ~counters:(agg parse_reports) t0;
  pf "(deterministic for any --jobs: seed %d, budget %d per campaign;\n"
    config.seed config.budget;
  pf " `make bench-gate` diffs the fuzz.* counters against \
      bench/baseline.json)\n"

(* ------------------------------------------------------------------ *)

(* the experiment registry, in the order `all` runs them *)
let experiments =
  [
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig67", fig67);
    ("fig5", fig5);
    ("fig1", fig1);
    ("table2", table2);
    ("table2x", table2x);
    ("uaf", uaf);
    ("fps", fps);
    ("detected", detected);
    ("table1", table1);
    ("fig8", fig8);
    ("stats", stats);
    ("sec74", sec74);
    ("ablation", ablation);
    ("serve", serve);
    ("rebuild", rebuild);
    ("fuzz", fuzz);
  ]

let () =
  (* resolve every name before running any *)
  let runs =
    List.concat_map
      (fun name ->
        if name = "all" then List.map snd experiments
        else
          match List.assoc_opt name experiments with
          | Some run -> [ run ]
          | None ->
            prerr_endline
              ("unknown experiment: " ^ name ^ " (one of: all "
              ^ String.concat " " (List.map fst experiments)
              ^ ")");
            exit 1)
      experiments_arg
  in
  List.iter (fun run -> run ()) runs;
  (match opt_out with
  | Some file ->
    let json =
      Pl.emit_json eng
        ~extra:[ ("experiment", String.concat " " experiments_arg) ]
        ()
    in
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc json);
    pf "wrote %s\n" file
  | None -> ());
  (match opt_trace with
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc (Pl.trace_json eng));
    pf "wrote %s (Chrome trace-event JSON)\n" file
  | None -> ());
  Pl.close eng
