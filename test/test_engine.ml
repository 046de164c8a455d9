(* The staged hardening engine: pool determinism, artifact-cache
   correctness, and parallel == sequential for the paper's headline
   experiments (Table 1 / Juliet subsets).

   This is also the regression guard for the domain-safety audit: every
   stage primitive here runs under 4 worker domains and must produce
   byte-identical artifacts and measurements to a sequential run. *)

module Pl = Engine.Pipeline
module Rw = Redfat.Rewrite
module Rt = Redfat_rt.Runtime

let libredfat = Redfat.Hardened Rt.default_options

let log_opts = { Rt.default_options with mode = Rt.Log }

let with_engine ?(jobs = 1) ?(cache = true) ?cache_dir f =
  let eng = Pl.create ~jobs ~cache ?cache_dir () in
  Fun.protect ~finally:(fun () -> Pl.close eng) (fun () -> f eng)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "redfat-engine-test-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* --- pool ----------------------------------------------------------- *)

let prop_pool_matches_list_map =
  QCheck.Test.make ~count:30 ~name:"Pool.map == List.map for any jobs"
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (xs, jobs) ->
      let f x = (x * x) - (3 * x) + 1 in
      let pool = Engine.Pool.create ~jobs () in
      let ys = Engine.Pool.map_list pool f xs in
      Engine.Pool.close pool;
      ys = List.map f xs)

let test_pool_exception_propagates () =
  let pool = Engine.Pool.create ~jobs:4 () in
  let r =
    try
      ignore
        (Engine.Pool.map_list pool
           (fun x -> if x >= 7 then failwith (string_of_int x) else x)
           (List.init 20 Fun.id));
      "no exception"
    with Failure m -> m
  in
  Engine.Pool.close pool;
  (* lowest failing index wins, regardless of scheduling *)
  Alcotest.(check string) "lowest-index failure" "7" r;
  (* the pool survives a failed batch *)
  let pool = Engine.Pool.create ~jobs:4 () in
  let ys = Engine.Pool.map_list pool (fun x -> x + 1) [ 1; 2; 3 ] in
  Engine.Pool.close pool;
  Alcotest.(check (list int)) "pool reusable after failure" [ 2; 3; 4 ] ys

let test_pool_nested_map () =
  let pool = Engine.Pool.create ~jobs:3 () in
  (* a worker task fanning out again must not deadlock: nested maps
     degrade to sequential inside that worker *)
  let ys =
    Engine.Pool.map_list pool
      (fun x -> List.fold_left ( + ) 0 (Engine.Pool.map_list pool Fun.id
                                          (List.init x Fun.id)))
      [ 5; 10; 15 ]
  in
  Engine.Pool.close pool;
  Alcotest.(check (list int)) "nested" [ 10; 45; 105 ] ys

(* --- cache ---------------------------------------------------------- *)

let test_cache_hit_returns_equal_fresh_copy () =
  let c = Engine.Cache.create ~enabled:true () in
  let key = Engine.Cache.key ~kind:"t" [ "a"; "b" ] in
  let v1 = Engine.Cache.memo c ~key (fun () -> [ "x"; "y" ]) in
  let v2 = Engine.Cache.memo c ~key (fun () -> failwith "must not recompute") in
  Alcotest.(check (list string)) "hit equals cold" v1 v2;
  Alcotest.(check bool) "hit is a fresh copy (no sharing across domains)"
    false (v1 == v2);
  let st = Engine.Cache.stats c in
  Alcotest.(check int) "hits" 1 st.Engine.Cache.hits;
  Alcotest.(check int) "misses" 1 st.Engine.Cache.misses

let test_cache_distinct_keys () =
  Alcotest.(check bool) "kind separates keys" false
    (Engine.Cache.key ~kind:"compile" [ "p" ]
    = Engine.Cache.key ~kind:"harden" [ "p" ]);
  (* concatenation ambiguity must not collide: ["ab";""] vs ["a";"b"] *)
  Alcotest.(check bool) "part boundaries hash differently" false
    (Engine.Cache.key ~kind:"k" [ "ab"; "" ]
    = Engine.Cache.key ~kind:"k" [ "a"; "b" ])

let test_disk_cache_warm_start () =
  with_temp_dir @@ fun dir ->
  let spec = Workloads.Spec.find "mcf" in
  let cold =
    with_engine ~cache_dir:dir @@ fun eng ->
    let bin = Pl.compile eng (Workloads.Spec.program spec) in
    let hard = Pl.harden eng bin in
    let st = Pl.cache_stats eng in
    (* compile + the slices + a manifest + one artifact per slice *)
    let expected = 3 + List.length (Redfat.Shard.slices bin) in
    Alcotest.(check int) "cold run stores artifacts" expected
      st.Engine.Cache.stores;
    Binfmt.Relf.serialize hard.Rw.binary
  in
  (* a brand-new engine on the same dir starts warm *)
  let warm =
    with_engine ~cache_dir:dir @@ fun eng ->
    let bin = Pl.compile eng (Workloads.Spec.program spec) in
    let hard = Pl.harden eng bin in
    let st = Pl.cache_stats eng in
    Alcotest.(check int) "warm run misses nothing" 0 st.Engine.Cache.misses;
    Alcotest.(check int) "warm run hits both artifacts" 2 st.Engine.Cache.hits;
    Binfmt.Relf.serialize hard.Rw.binary
  in
  Alcotest.(check bool) "warm artifact byte-identical to cold" true
    (cold = warm)

(* a warm workflow answers the profile from its own artifact, so the
   profiling build is never hardened: compile, profile and the hardened
   manifest are the only disk reads *)
let test_warm_workflow_skips_profiling_build () =
  with_temp_dir @@ fun dir ->
  let prog, train, inputs = Serve.Targets.find_program "spec:mcf" in
  let run () =
    with_engine ~cache_dir:dir @@ fun eng ->
    ignore (Pl.workflow eng ~train ~inputs (Pl.compile eng prog));
    ( (Pl.cache_stats eng).Engine.Cache.hits_disk,
      Obs.counter (Pl.obs eng) "harden.manifest.hit" )
  in
  ignore (run ());
  let disk, manifest = run () in
  Alcotest.(check int) "warm disk hits" 3 disk;
  Alcotest.(check int) "warm manifest hits" 1 manifest

(* two caches on two domains append overlapping keys to one directory
   at once, each into its own pack; a third cache, opened afterwards,
   reads every artifact back from disk byte for byte.  Some blobs are
   larger than one write chunk. *)
let test_disk_cache_two_writers () =
  with_temp_dir @@ fun dir ->
  let blob i =
    String.init
      (if i mod 7 = 0 then 70_000 + i else 50 + (i * 13))
      (fun j -> Char.chr ((i + j) land 0xff))
  in
  let key i = Engine.Cache.key ~kind:"t" [ string_of_int i ] in
  let writer lo hi =
    Domain.spawn (fun () ->
        let c = Engine.Cache.create ~dir () in
        for i = lo to hi do Engine.Cache.put c ~key:(key i) (blob i) done;
        let stores = (Engine.Cache.stats c).Engine.Cache.stores in
        Engine.Cache.close c;
        stores)
  in
  let a = writer 0 149 and b = writer 50 199 in
  let sa = Domain.join a and sb = Domain.join b in
  Alcotest.(check int) "every record appended" 300 (sa + sb);
  Alcotest.(check int) "one pack per writer" 2
    (List.length
       (List.filter
          (fun f -> Filename.check_suffix f ".pack")
          (Array.to_list (Sys.readdir dir))));
  let c = Engine.Cache.create ~dir () in
  for i = 0 to 199 do
    Alcotest.(check bool) (Printf.sprintf "artifact %d" i) true
      (Engine.Cache.find_opt c ~key:(key i) = Some (blob i))
  done;
  let st = Engine.Cache.stats c in
  Alcotest.(check int) "all from disk" 200 st.Engine.Cache.hits_disk;
  Alcotest.(check int) "no miss" 0 st.Engine.Cache.misses;
  Alcotest.(check int) "no damage" 0 st.Engine.Cache.corrupt

let test_no_cache_engine () =
  with_engine ~cache:false @@ fun eng ->
  let spec = Workloads.Spec.find "mcf" in
  let b1 = Pl.compile eng (Workloads.Spec.program spec) in
  let b2 = Pl.compile eng (Workloads.Spec.program spec) in
  Alcotest.(check bool) "recompilation is deterministic" true
    (Binfmt.Relf.serialize b1 = Binfmt.Relf.serialize b2);
  let st = Pl.cache_stats eng in
  Alcotest.(check int) "disabled cache never hits" 0 st.Engine.Cache.hits;
  Alcotest.(check int) "disabled cache never stores" 0 st.Engine.Cache.stores

(* --- cache under concurrency ----------------------------------------- *)

let test_cache_memo_concurrent () =
  (* racing domains on one key may duplicate the compute (observable
     only through the miss counter) but must never observe divergent
     artifacts *)
  let c = Engine.Cache.create ~enabled:true () in
  let key = Engine.Cache.key ~kind:"t" [ "concurrent" ] in
  let computes = Atomic.make 0 in
  let doms =
    List.init 8 (fun _ ->
        Domain.spawn (fun () ->
            Engine.Cache.memo c ~key (fun () ->
                Atomic.incr computes;
                "artifact")))
  in
  let vs = List.map Domain.join doms in
  List.iter (fun v -> Alcotest.(check string) "one artifact" "artifact" v) vs;
  let st = Engine.Cache.stats c in
  Alcotest.(check int) "every lookup accounted" 8
    (st.Engine.Cache.hits + st.Engine.Cache.misses);
  Alcotest.(check bool) "computes == misses >= 1" true
    (Atomic.get computes = st.Engine.Cache.misses
    && st.Engine.Cache.misses >= 1)

let test_sharded_harden_concurrent () =
  (* parallel workers hardening the same binary drive the
     function-sharded manifest/fnart protocol concurrently: duplicate
     per-function computes are allowed, divergent artifacts are not *)
  let spec = Workloads.Spec.find "gcc" in
  let seq =
    with_engine ~jobs:1 @@ fun eng ->
    let bin = Pl.compile eng (Workloads.Spec.program spec) in
    Binfmt.Relf.serialize (Pl.harden eng bin).Rw.binary
  in
  with_engine ~jobs:4 @@ fun eng ->
  let bin = Pl.compile eng (Workloads.Spec.program spec) in
  let outs =
    Pl.map eng
      (fun () -> Binfmt.Relf.serialize (Pl.harden eng bin).Rw.binary)
      (List.init 8 (fun _ -> ()))
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "parallel harden == sequential harden" true
        (s = seq))
    outs;
  (* a later call must be served from the manifest tier *)
  let st0 = (Pl.cache_stats eng).Engine.Cache.hits in
  ignore (Pl.harden eng bin);
  Alcotest.(check bool) "manifest serves repeat lookups" true
    ((Pl.cache_stats eng).Engine.Cache.hits > st0)

(* binaries the partitioner declines take the same manifest/slice path
   as one whole-text slice: byte-identical to a whole-binary rewrite,
   and served from the manifest on the next harden *)
let test_unpartitionable_harden () =
  List.iter
    (fun (c : Workloads.Fuzzbugs.case) ->
      let bin = Workloads.Fuzzbugs.binary c in
      with_engine @@ fun eng ->
      let harden backend =
        let opts = { Rw.optimized with backend } in
        let name = c.id ^ "/" ^ Backend.Check_backend.name backend in
        let mono = Rw.rewrite opts bin and hard = Pl.harden eng ~opts bin in
        Alcotest.(check bool) (name ^ ": == Rewrite.rewrite") true
          (Binfmt.Relf.serialize mono.Rw.binary
           = Binfmt.Relf.serialize hard.Rw.binary
          && mono.Rw.traps = hard.Rw.traps
          && mono.Rw.stats = hard.Rw.stats)
      in
      List.iter harden Backend.Check_backend.all;
      harden (List.hd Backend.Check_backend.all);
      Alcotest.(check int) (c.id ^ ": manifest hit") 1
        (Obs.counter (Pl.obs eng) "harden.manifest.hit"))
    Workloads.Fuzzbugs.all

(* the partition depends only on the binary: one engine partitions each
   binary once for all six presets of the rewrite benchmark, and a later
   process hardening the same binaries under a new preset reads every
   partition from the disk tier *)
let test_one_partition_per_binary () =
  with_temp_dir @@ fun dir ->
  let mcf = Workloads.Spec.binary (Workloads.Spec.find "mcf") in
  let bins = [ ("mcf", mcf); ("chrome", Workloads.Chrome.binary ~copies:1 ()) ] in
  let counter eng name = Obs.counter (Pl.obs eng) name in
  let check_harden eng name opts bin =
    let mono = Rw.rewrite opts bin and hard = Pl.harden eng ~opts bin in
    Alcotest.(check bool) (name ^ ": == Rewrite.rewrite") true
      (Binfmt.Relf.serialize mono.Rw.binary
       = Binfmt.Relf.serialize hard.Rw.binary
      && mono.Rw.traps = hard.Rw.traps
      && mono.Rw.stats = hard.Rw.stats)
  in
  let presets =
    List.concat_map
      (fun backend ->
        let b = Backend.Check_backend.name backend in
        [ (b ^ "/optimized", { Rw.optimized with Rw.backend });
          (b ^ "/with_hoist", { Rw.with_hoist with Rw.backend }) ])
      Backend.Check_backend.all
  in
  Alcotest.(check int) "six presets" 6 (List.length presets);
  with_engine ~cache_dir:dir (fun eng ->
      List.iter
        (fun (name, bin) ->
          let h0 = counter eng "harden.slices.hit"
          and m0 = counter eng "harden.slices.miss" in
          List.iter
            (fun (pname, opts) -> check_harden eng (name ^ "/" ^ pname) opts bin)
            presets;
          Alcotest.(check int) (name ^ ": one partition") 1
            (counter eng "harden.slices.miss" - m0);
          Alcotest.(check int) (name ^ ": five reuses") 5
            (counter eng "harden.slices.hit" - h0))
        bins);
  with_engine ~cache_dir:dir @@ fun eng ->
  List.iter
    (fun (name, bin) ->
      check_harden eng (name ^ "/unoptimized") Rw.unoptimized bin)
    bins;
  Alcotest.(check int) "new process: partitions from disk" 2
    (counter eng "harden.slices.hit");
  Alcotest.(check int) "new process: no partition" 0
    (counter eng "harden.slices.miss")

(* nothing outside an engine holds it: once dropped it is collected,
   whether or not its pool has spawned worker domains *)
let test_dropped_engine_collected () =
  let collected jobs =
    let w = Weak.create 1 in
    let[@inline never] use () =
      let eng = Pl.create ~jobs () in
      let bin =
        Pl.compile eng (Workloads.Spec.program (Workloads.Spec.find "mcf"))
      in
      ignore (Pl.harden eng bin);
      if jobs > 1 then ignore (Pl.map eng Fun.id [ 1; 2; 3; 4 ]);
      Weak.set w 0 (Some eng)
    in
    use ();
    Gc.full_major ();
    not (Weak.check w 0)
  in
  Alcotest.(check bool) "jobs:1 engine collected" true (collected 1);
  Alcotest.(check bool) "jobs:2 engine collected" true (collected 2)

(* --- parallel == sequential on the paper's experiments --------------- *)

let spec_subset = [ "mcf"; "bzip2"; "libquantum" ]

(* a condensed table1_row: every stage primitive, canonicalised *)
let table1_fragment eng name =
  let b = Workloads.Spec.find name in
  let bin = Pl.compile eng (Workloads.Spec.program b) in
  let refs = Workloads.Spec.ref_inputs b in
  let base = (Pl.run eng ~inputs:refs bin Baseline).run in
  let allow =
    Pl.profile eng ~test_suite:[ Workloads.Spec.train_inputs b ] bin
  in
  let hard =
    Pl.harden eng ~opts:{ Rw.optimized with allowlist = Some allow } bin
  in
  let hr = Pl.run eng ~inputs:refs hard.Rw.binary (Hardened log_opts) in
  Printf.sprintf "%s base=%d hard=%d allow=[%s] sites=%d/%d out=[%s]" name
    base.Redfat.cycles hr.Redfat.run.Redfat.cycles
    (String.concat ";" (List.map string_of_int allow))
    hard.Rw.stats.Rw.full_sites hard.Rw.stats.Rw.redzone_sites
    (String.concat ";" (List.map string_of_int hr.Redfat.run.Redfat.outputs))

let test_table1_parallel_eq_sequential () =
  let rows jobs =
    with_engine ~jobs ~cache:false @@ fun eng ->
    Pl.map eng (table1_fragment eng) spec_subset
  in
  Alcotest.(check (list string)) "jobs=4 == jobs=1" (rows 1) (rows 4)

let test_juliet_parallel_eq_sequential () =
  let subset =
    List.filteri (fun i _ -> i mod 24 = 0) Workloads.Juliet.all
  in
  let verdicts jobs =
    with_engine ~jobs ~cache:false @@ fun eng ->
    Pl.map eng
      (fun (c : Workloads.Juliet.case) ->
        let bin = Pl.compile eng c.program in
        let hard = Pl.harden eng bin in
        let attack =
          Pl.run eng ~inputs:c.attack_inputs hard.Rw.binary libredfat
        in
        ( c.id,
          match attack.Redfat.verdict with
          | Redfat.Detected _ -> true
          | _ -> false ))
      subset
  in
  Alcotest.(check bool) "subset is non-trivial" true (List.length subset > 5);
  Alcotest.(check (list (pair string bool))) "jobs=4 == jobs=1" (verdicts 1)
    (verdicts 4)

let test_compile_deterministic_across_domains () =
  with_engine ~jobs:4 ~cache:false @@ fun eng ->
  let progs = List.init 8 (fun seed -> Workloads.Synth.program ~seed ()) in
  let once () =
    Pl.map eng (fun p -> Binfmt.Relf.serialize (Pl.compile eng p)) progs
  in
  Alcotest.(check (list string)) "two parallel sweeps agree" (once ()) (once ())

(* --- the Figure-5 workflow -------------------------------------------- *)

(* the workflow, and the serving daemon's artifact built on it, equal a
   direct compile -> profile -> harden -> verify -> baseline sequence
   for spec:mcf under every backend, and time each stage once under
   its own lowercase name *)
let test_workflow_matches_direct () =
  let b = Workloads.Spec.find "mcf" in
  let prog = Workloads.Spec.program b in
  let train = [ Workloads.Spec.train_inputs b ] in
  let inputs = Workloads.Spec.ref_inputs b in
  List.iter
    (fun backend ->
      let name = Backend.Check_backend.name backend in
      let opts = { Rw.optimized with backend } in
      let direct, direct_run =
        with_engine ~cache:false @@ fun eng ->
        let bin = Pl.compile eng prog in
        let allow = Pl.profile eng ~test_suite:train bin in
        let hard =
          Pl.harden eng ~opts:{ opts with allowlist = Some allow } bin
        in
        let audit =
          match Pl.verify eng hard.Rw.binary with
          | Ok r -> r
          | Error e -> Alcotest.fail e
        in
        let base = (Pl.run eng ~inputs bin Baseline).run in
        ( { Pl.hard; audit; base },
          Pl.run eng ~inputs hard.Rw.binary (Hardened log_opts) )
      in
      with_engine ~cache:false (fun eng ->
          let w =
            Pl.workflow eng ~opts ~train ~inputs (Pl.compile eng prog)
          in
          Alcotest.(check string) (name ^ ": hardened binary")
            (Binfmt.Relf.serialize direct.hard.Rw.binary)
            (Binfmt.Relf.serialize w.hard.Rw.binary);
          Alcotest.(check int) (name ^ ": audit total")
            direct.audit.Redfat.Verify.total w.audit.Redfat.Verify.total;
          Alcotest.(check int) (name ^ ": baseline cycles")
            direct.base.Redfat.cycles w.base.Redfat.cycles;
          let hrun = Pl.run eng ~inputs w.hard.Rw.binary (Hardened log_opts) in
          Alcotest.(check string) (name ^ ": summary")
            (Pl.summary direct direct_run) (Pl.summary w hrun);
          Alcotest.(check (list (pair string int)))
            (name ^ ": one span per primitive call")
            [ ("compile", 1); ("harden", 2); ("profile", 1); ("run", 2);
              ("verify", 1) ]
            (List.map
               (fun (n, calls, _) -> (n, calls))
               (Engine.Report.stage_summary (Pl.report eng))));
      with_engine ~cache:false (fun eng ->
          let srv = Serve.Server.create eng in
          let field resp k =
            match Obs.Json.parse resp with
            | Ok j -> Option.bind (Obs.Json.member k j) Obs.Json.to_num
            | Error e -> Alcotest.fail e
          in
          let req op =
            Printf.sprintf {|{"op":"%s","target":"spec:mcf","backend":"%s"}|}
              op name
          in
          let h, ok = Serve.Server.handle srv (req "harden") in
          Alcotest.(check bool) (name ^ ": harden ok") true ok;
          let st = direct.hard.Rw.stats in
          List.iter
            (fun (k, v) ->
              Alcotest.(check (option (float 0.))) (name ^ ": " ^ k)
                (Some (float_of_int v)) (field h k))
            [
              ("checks_emitted", st.Rw.checks_emitted);
              ("trampolines", st.Rw.trampolines);
              ("code_bytes", st.Rw.text_bytes + st.Rw.tramp_bytes);
              ("hoisted_checks", st.Rw.hoisted_checks);
              ("baseline_cycles", direct.base.Redfat.cycles);
            ];
          let v, _ = Serve.Server.handle srv (req "verify") in
          Alcotest.(check (option (float 0.))) (name ^ ": accounted")
            (Some (float_of_int direct.audit.Redfat.Verify.total))
            (field v "accounted")))
    Backend.Check_backend.all

let test_report_json_strings () =
  (* names and values with quotes, backslashes and UTF-8 bytes read
     back unchanged *)
  let r = Engine.Report.create () in
  let target = "caf\xc3\xa9.mc" and counter = "x\\y" in
  let note = "a \"quoted\" \\ value\tcaf\xc3\xa9" in
  Obs.add (Engine.Report.obs r) counter;
  Engine.Report.add_target r ~name:target ~counters:[ (counter, 3) ]
    ~overheads:[ (counter, 2.0) ] ~wall:0.1 ();
  let json = Engine.Report.to_json ~extra:[ ("note", note) ] r in
  let module J = Obs.Json in
  let v =
    match J.parse json with Ok v -> v | Error e -> Alcotest.fail e
  in
  let get path v =
    List.fold_left
      (fun v k ->
        match J.member k v with
        | Some v -> v
        | None -> Alcotest.failf "no field %S" k)
      v path
  in
  Alcotest.(check (option string)) "extra value" (Some note)
    (J.to_str (get [ "note" ] v));
  Alcotest.(check (option (float 0.))) "counter" (Some 1.)
    (J.to_num (get [ "counters"; counter ] v));
  match J.to_arr (get [ "targets" ] v) with
  | Some [ tg ] ->
    Alcotest.(check (option string)) "target name" (Some target)
      (J.to_str (get [ "name" ] tg));
    Alcotest.(check (option (float 0.))) "target counter" (Some 3.)
      (J.to_num (get [ "counters"; counter ] tg));
    Alcotest.(check (option (float 0.))) "target overhead" (Some 2.)
      (J.to_num (get [ "overheads"; counter ] tg))
  | _ -> Alcotest.fail "one target expected"

let test_report_json_shape () =
  with_engine ~jobs:2 @@ fun eng ->
  let bin = Pl.compile eng (Workloads.Spec.program (Workloads.Spec.find "mcf")) in
  ignore (Pl.harden eng bin);
  Engine.Report.add_target (Pl.report eng) ~name:"spec:mcf" ~cycles:42
    ~overheads:[ ("merge", 4.0) ] ~wall:0.5 ();
  let json = Pl.emit_json eng ~extra:[ ("experiment", "test") ] () in
  List.iter
    (fun needle ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) ("json contains " ^ needle) true
        (contains json needle))
    [
      "\"experiment\": \"test\"";
      "\"jobs\": 2";
      "\"cache\":";
      "\"stages\":";
      "\"compile\":";
      "\"harden\":";
      "\"spec:mcf\"";
      "\"baseline_cycles\": 42";
      "\"merge\": 4";
      "\"wall_seconds\":";
    ]

(* the rewriter's whole pass is in its own spans: the shape key and the
   finishing work (tally, .elimtab, patched binary) included *)
let test_harden_rewriter_spans () =
  with_engine ~cache:false @@ fun eng ->
  let bin = Workloads.Spec.binary (Workloads.Spec.find "mcf") in
  ignore (Pl.harden eng bin);
  let o = Pl.obs eng in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded as a rewrite span") true
        (List.exists
           (fun (s : Obs.span) -> s.sp_name = name && s.sp_cat = "rewrite")
           (Obs.spans o)))
    [ "rw.shape"; "rw.finish" ];
  Alcotest.(check bool) "spans well-formed" true (Obs.well_formed o)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_pool_matches_list_map;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "pool: nested map is safe" `Quick test_pool_nested_map;
    Alcotest.test_case "cache: hit == fresh copy of cold" `Quick
      test_cache_hit_returns_equal_fresh_copy;
    Alcotest.test_case "cache: key separation" `Quick test_cache_distinct_keys;
    Alcotest.test_case "cache: disk tier warm start" `Quick
      test_disk_cache_warm_start;
    Alcotest.test_case "cache: disabled engine" `Quick test_no_cache_engine;
    Alcotest.test_case "cache: two writers, one directory" `Quick
      test_disk_cache_two_writers;
    Alcotest.test_case "cache: concurrent memo converges" `Quick
      test_cache_memo_concurrent;
    Alcotest.test_case "cache: concurrent sharded harden converges" `Quick
      test_sharded_harden_concurrent;
    Alcotest.test_case "cache: warm workflow skips profiling build" `Quick
      test_warm_workflow_skips_profiling_build;
    Alcotest.test_case "harden: unpartitionable binaries" `Quick
      test_unpartitionable_harden;
    Alcotest.test_case "harden: one partition per binary" `Quick
      test_one_partition_per_binary;
    Alcotest.test_case "lifecycle: dropped engine is collected" `Quick
      test_dropped_engine_collected;
    Alcotest.test_case "table1 subset: parallel == sequential" `Slow
      test_table1_parallel_eq_sequential;
    Alcotest.test_case "juliet subset: parallel == sequential" `Slow
      test_juliet_parallel_eq_sequential;
    Alcotest.test_case "compile deterministic across domains" `Quick
      test_compile_deterministic_across_domains;
    Alcotest.test_case "workflow matches direct sequence" `Quick
      test_workflow_matches_direct;
    Alcotest.test_case "harden: rewriter spans" `Quick
      test_harden_rewriter_spans;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "report JSON strings round-trip" `Quick
      test_report_json_strings;
  ]
