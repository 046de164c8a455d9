module Rw = Redfat.Rewrite

type t = {
  pool : Pool.t;
  cache : Cache.t;
  rep : Report.t;
  strict : bool;
  inject : Faultinject.t;
}

let create ?(jobs = 1) ?(cache = true) ?cache_dir ?(strict = false)
    ?(inject = Faultinject.none) () =
  let rep = Report.create () in
  let obs = Report.obs rep in
  Report.set_jobs rep (max 1 jobs);
  {
    pool = Pool.create ~jobs ~obs ();
    cache =
      Cache.create ~enabled:cache ?dir:cache_dir
        ~notify:(fun ev -> Obs.add obs ("cache." ^ ev))
        ~obs ();
    rep;
    strict;
    inject;
  }

let close t =
  Pool.close t.pool;
  Cache.close t.cache
let jobs t = Pool.jobs t.pool
let report t = t.rep
let obs t = Report.obs t.rep
let cache_stats t = Cache.stats t.cache
let cache_enabled t = Cache.enabled t.cache
let strict t = t.strict
let inject t = t.inject
let map t f xs = Pool.map_list t.pool f xs

(* --- the fault boundary --------------------------------------------- *)

(* the target a worker domain is currently processing: the provenance
   attached to faults and the label injection clauses match against.
   Domain-local, so parallel workers never race on it. *)
let target_key : string Domain.DLS.key = Domain.DLS.new_key (fun () -> "-")

let hook t point =
  Faultinject.hook t.inject ~point ~label:(Domain.DLS.get target_key)

let record_fault t (f : Fault.t) =
  Report.add_fault t.rep f;
  Obs.add (obs t) ("fault." ^ Fault.code f)

let protect t ~target f =
  let saved = Domain.DLS.get target_key in
  Domain.DLS.set target_key target;
  let finish r = Domain.DLS.set target_key saved; r in
  let rec go attempt =
    match f () with
    | v -> finish (Ok v)
    | exception e ->
      let flt = Fault.of_exn ~target e in
      (* one bounded retry for transient cache/IO faults: the state
         they depend on (a damaged artifact now deleted, a racing
         writer now done) can differ on the second attempt *)
      if Fault.is_transient flt && attempt < 2 then go (attempt + 1)
      else begin
        record_fault t flt;
        if t.strict then (finish (); raise (Fault.Fault flt))
        else finish (Error flt)
      end
  in
  go 1

let map_targets t f targets =
  Pool.map_list t.pool
    (fun tgt -> protect t ~target:tgt (fun () -> f tgt))
    targets

let load_relf t path =
  hook t "io";
  let data =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Fault.fail (Fault.Io { what = "read"; path; detail = msg })
  in
  hook t "parse";
  Binfmt.Relf.load ~src:path data

(* --- cached, timed stage primitives --------------------------------- *)

(* injected runs must never reuse (or pollute) clean-run artifacts, so
   the canonical injection spec is part of every cache key; the harden
   key also carries the fault policy, which changes what a faulting
   rewrite produces *)
let inject_key t = Faultinject.to_string t.inject

let memo t ~key compute =
  hook t "cache";
  Cache.memo t.cache ~key compute

let compile t (prog : Minic.Ast.program) =
  Report.timed t.rep "compile" @@ fun () ->
  hook t "compile";
  let key =
    Cache.key ~kind:"compile" [ Marshal.to_string prog []; inject_key t ]
  in
  memo t ~key (fun () -> Minic.Codegen.compile prog)

(* one path for every harden.  The manifest is keyed by the whole
   input, so an unchanged binary is served without even sweeping its
   text.  On a miss each slice is rewritten with a chained trampoline
   base and cached by its own content digest, so a one-function edit
   re-plans exactly the functions whose (base, address, bytes) triple
   changed; slices sharing that triple alias on purpose, as identical
   functions at identical placements rewrite identically even across
   binaries.  The spliced result is byte-identical to a whole-binary
   rewrite (see Shard's contract and the shard parity tests).  The
   partition depends only on the binary, so it is itself an artifact:
   every other preset hardening the same binary, in this engine or a
   later process, skips the whole-text sweep.  With the cache off
   nothing can be reused and sharding would only add splice work, so
   the text is one slice. *)
let harden t ?tramp_base ?(opts = Rw.optimized) bin =
  Report.timed t.rep "harden" @@ fun () ->
  hook t "harden";
  hook t "cache";
  let o = obs t in
  (* one span per cost the engine adds around the rewriter; the cache
     records its own (cache.mem, cache.disk, cache.unmarshal,
     cache.append) *)
  let span name f = Obs.span o ~cat:"engine" name f in
  let base = Option.value tramp_base ~default:Rw.default_tramp_base in
  let fixed =
    [
      Rw.options_key opts;
      inject_key t;
      (if t.strict then "abort" else "degrade");
    ]
  in
  let ser, mkey =
    span "harden.key" @@ fun () ->
    let ser = Binfmt.Relf.serialize bin in
    (ser, Cache.key ~kind:"manifest" (ser :: string_of_int base :: fixed))
  in
  match Cache.find_opt t.cache ~key:mkey with
  | Some ((r : Rw.t), nfns) ->
    Obs.add o "harden.manifest.hit";
    Obs.add o ~n:nfns "harden.fn.hit";
    r
  | None ->
    Obs.add o "harden.manifest.miss";
    let slices =
      if not (Cache.enabled t.cache) then [ Redfat.Shard.whole bin ]
      else
        let skey =
          span "harden.key" (fun () ->
              Cache.key ~kind:"slices" [ ser; inject_key t ])
        in
        match Cache.find_opt t.cache ~key:skey with
        | Some (sls : Redfat.Shard.slice list) ->
          Obs.add o "harden.slices.hit";
          sls
        | None ->
          Obs.add o "harden.slices.miss";
          let sls =
            span "harden.partition" (fun () -> Redfat.Shard.slices bin)
          in
          Cache.put t.cache ~key:skey sls;
          sls
    in
    let fault_hook =
      Faultinject.hook_fn t.inject ~label:(Domain.DLS.get target_key)
    in
    let part ~tramp_base (sl : Redfat.Shard.slice) slice_bin =
      let fkey =
        span "harden.key" @@ fun () ->
        Cache.key ~kind:"fnart"
          (fixed
          @ [
              string_of_int tramp_base;
              string_of_int sl.sl_addr;
              sl.sl_digest;
            ])
      in
      match Cache.find_opt t.cache ~key:fkey with
      | Some (p : Rw.t) ->
        Obs.add o "harden.fn.hit";
        p
      | None ->
        Obs.add o "harden.fn.miss";
        let p =
          Rw.rewrite ~tramp_base ~obs:o
            ~on_fault:(if t.strict then Rw.Abort else Rw.Degrade)
            ?fault_hook opts slice_bin
        in
        Cache.put t.cache ~key:fkey p;
        p
    in
    (* the parts' lookups and rewrites nest inside: the splice's self
       time is the tiling check, the slice binaries and the assembly *)
    let r =
      span "harden.splice" (fun () ->
          Redfat.Shard.rewrite ~tramp_base:base bin slices part)
    in
    Cache.put t.cache ~key:mkey (r, List.length slices);
    r

(* the allow-list is looked up before the profiling build is made, so
   a hit skips that harden entirely; on a miss the harden's span nests
   inside this one *)
let profile t ?max_steps ~test_suite bin =
  Report.timed t.rep "profile" @@ fun () ->
  hook t "profile";
  let key =
    Cache.key ~kind:"profile"
      (Binfmt.Relf.serialize bin
      :: inject_key t
      :: (string_of_int (Option.value max_steps ~default:(-1))
         :: List.map
              (fun inputs ->
                String.concat "," (List.map string_of_int inputs))
              test_suite))
  in
  memo t ~key (fun () ->
      let prof = harden t ~opts:Rw.profiling_build bin in
      (* one image for the whole suite, shared by the workers; each run
         yields the sites it executed and those that failed the
         (LowFat) component *)
      let im = Redfat.image prof.Rw.binary in
      let runs =
        map t
          (fun inputs ->
            let cpu, rt, vmrt =
              Redfat.load ~inputs ?max_steps im Redfat.Profiling
            in
            ignore (Redfat.exec cpu vmrt ~entry:prof.Rw.binary.entry);
            (Redfat.Runtime.allowlist rt,
             Redfat.Runtime.lowfat_failing_sites rt))
          test_suite
      in
      (* a site makes the allow-list when it executed in some run and
         never failed the (LowFat) component in any run *)
      let failed = Hashtbl.create 64 in
      List.iter
        (fun (_, fs) -> List.iter (fun s -> Hashtbl.replace failed s ()) fs)
        runs;
      List.concat_map fst runs
      |> List.sort_uniq compare
      |> List.filter (fun s -> not (Hashtbl.mem failed s)))

let verify t ?allow bin =
  Report.timed t.rep "verify" @@ fun () ->
  hook t "verify";
  Rw.verify ?allow bin

let run t ?inputs ?max_steps ?acct ?libs bin runtime =
  Report.timed t.rep "run" @@ fun () ->
  hook t "run";
  Redfat.run ?inputs ?max_steps ?acct ?libs bin runtime

(* bench/perf's table1 workload is the last caller of these three; the
   benchmark change of ROADMAP item 1 moves it to [run] *)
let run_baseline t ~inputs bin =
  let o = run t ~inputs bin Redfat.Baseline in
  (o.run, o.verdict)

let run_hardened t ~options ~inputs bin =
  run t ~inputs bin (Redfat.Hardened options)

let run_memcheck t ~inputs bin =
  let o = run t ~inputs bin Redfat.Memcheck in
  (o.run, o.verdict, o.state)

let emit_json t ?extra () =
  Report.to_json ~cache:(cache_stats t) ~cache_enabled:(cache_enabled t)
    ?extra t.rep

(* fold a VM check-accounting table into the collector: per-variant
   execution/cycle counters plus per-site distributions, so a trace
   shows where the hardening cycles went *)
let record_vm_acct t (a : Vm.Cpu.acct) =
  let o = obs t in
  if a.Vm.Cpu.acct_full > 0 then
    Obs.add o ~n:a.Vm.Cpu.acct_full "vm.check.full";
  if a.Vm.Cpu.acct_redzone > 0 then
    Obs.add o ~n:a.Vm.Cpu.acct_redzone "vm.check.redzone";
  if a.Vm.Cpu.acct_temporal > 0 then
    Obs.add o ~n:a.Vm.Cpu.acct_temporal "vm.check.temporal";
  if a.Vm.Cpu.acct_cycles > 0 then
    Obs.add o ~n:a.Vm.Cpu.acct_cycles "vm.check.cycles";
  List.iter
    (fun (_site, checks, cycles) ->
      Obs.observe o "vm.site.checks" checks;
      Obs.observe o "vm.site.cycles" cycles)
    (Vm.Cpu.acct_sites a)

let trace_json t = Obs.to_chrome ~process_name:"redfat" (obs t)

(* --- the Figure-5 workflow ------------------------------------------- *)

type workflow = {
  hard : Redfat.Rewrite.t;
  audit : Redfat.Verify.report;
  base : Redfat.run_result;
}

(* the one place that sequences profile, harden, audit and baseline:
   each primitive times itself and runs its own injection points, so
   every caller sees the same spans and fails the same requests *)
let workflow t ?(opts = Rw.optimized) ~train ~inputs bin =
  let allow = profile t ~test_suite:train bin in
  let hard = harden t ~opts:{ opts with Rw.allowlist = Some allow } bin in
  let audit =
    match verify t hard.Rw.binary with
    | Error e -> Fault.fail (Fault.Verify { unaccounted = 0; detail = e })
    | Ok r when Redfat.Verify.ok r -> r
    | Ok r ->
      let n = List.length r.Redfat.Verify.failures in
      Fault.fail
        (Fault.Verify
           {
             unaccounted = n;
             detail =
               Format.asprintf "%d unaccounted memory accesses@ %a" n
                 Redfat.Verify.pp_report r;
           })
  in
  let { Redfat.run = base; verdict = bv; _ } =
    run t ~inputs bin Redfat.Baseline
  in
  (match bv with
  | Redfat.Finished _ -> ()
  | v ->
    Fault.fail
      (Fault.Run { what = "baseline"; detail = Redfat.verdict_to_string v }));
  { hard; audit; base }

let summary { hard; base; _ } (hrun : Redfat.Runtime.t Redfat.outcome) =
  let b = Buffer.create 256 in
  Printf.bprintf b "verdict:  %s\n"
    (Redfat.verdict_to_string hrun.Redfat.verdict);
  (* the hardened run executes in Log mode, so errors the hardening
     caught (and skipped past) show up here, not as an abort *)
  let rt = hrun.Redfat.state in
  (match Redfat.Runtime.errors rt with
  | [] -> ()
  | errs ->
    Printf.bprintf b "detected: %d unique memory error(s)\n"
      (List.length errs);
    List.iter
      (fun e -> Printf.bprintf b "  - %s\n" (Redfat.Runtime.explain rt e))
      errs);
  Printf.bprintf b "backend:  %s\n"
    (Backend.Check_backend.name (Redfat.backend_of_binary hard.Rw.binary));
  Printf.bprintf b "baseline: %d cycles\n" base.Redfat.cycles;
  Printf.bprintf b "hardened: %d cycles (overhead %.2fx)\n"
    hrun.Redfat.run.Redfat.cycles
    (float_of_int hrun.Redfat.run.Redfat.cycles
    /. float_of_int base.Redfat.cycles);
  Printf.bprintf b "coverage: %.1f%% of heap accesses primary-checked\n"
    (Redfat.Runtime.coverage_percent hrun.Redfat.state);
  Printf.bprintf b
    "sites:    %d full, %d redzone-only, %d temporal; %d trampolines"
    hard.Rw.stats.Rw.full_sites hard.Rw.stats.Rw.redzone_sites
    hard.Rw.stats.Rw.temporal_sites hard.Rw.stats.Rw.trampolines;
  Buffer.contents b
