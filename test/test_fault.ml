(* The fault-tolerance layer: typed taxonomy, deterministic fault
   injection, graceful per-site degradation, per-target batch
   isolation, and cache self-healing.

   The invariants under test mirror the documented failure semantics
   (docs/MANUAL.md "Failure semantics"):
   - every taxonomy code is a stable, documented string, and the
     classifier/injection points produce only registered codes;
   - degradation is weaker-but-sound: a degraded or skipped rewrite
     still passes its own soundness audit and preserves workload
     behaviour;
   - parallel and sequential batches fault identically;
   - damaged cache artifacts are deleted and recomputed, never
     propagated. *)

module Pl = Engine.Pipeline
module Fault = Engine.Fault
module Inj = Engine.Faultinject
module Cache = Engine.Cache
module Rw = Redfat.Rewrite
module Rt = Redfat_rt.Runtime

let inj spec =
  match Inj.parse spec with
  | Ok t -> t
  | Error e -> Alcotest.failf "bad inject spec %S: %s" spec e

let with_engine ?(jobs = 1) ?(cache = false) ?cache_dir ?strict ?inject f =
  let eng = Pl.create ~jobs ~cache ?cache_dir ?strict ?inject () in
  Fun.protect ~finally:(fun () -> Pl.close eng) (fun () -> f eng)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "redfat-fault-test-%d" (Unix.getpid ()))
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

let registry_codes = List.map (fun i -> i.Fault.i_code) Fault.registry

let check_registered what code =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s is a registered code" what code)
    true
    (List.mem code registry_codes)

(* --- taxonomy ------------------------------------------------------- *)

let test_registry_well_formed () =
  Alcotest.(check bool) "non-empty" true (Fault.registry <> []);
  let codes = registry_codes in
  Alcotest.(check int)
    "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq compare codes));
  List.iter
    (fun (i : Fault.info) ->
      Alcotest.(check bool)
        (i.i_code ^ " has class.sub shape")
        true
        (match String.split_on_char '.' i.i_code with
        | [ a; b ] -> a <> "" && b <> ""
        | _ -> false);
      Alcotest.(check bool) (i.i_code ^ " meaning") true (i.i_meaning <> "");
      Alcotest.(check bool) (i.i_code ^ " behaviour") true (i.i_behaviour <> ""))
    Fault.registry;
  (* the markdown rendering names every code *)
  let md = Fault.registry_markdown () in
  let contains hay needle =
    let rec go i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun c -> Alcotest.(check bool) ("markdown has " ^ c) true (contains md c))
    codes

let test_of_exn_classification () =
  let check_code exn code =
    let f = Fault.of_exn ~target:"t" exn in
    Alcotest.(check string) (Printexc.to_string exn) code (Fault.code f);
    check_registered "of_exn" (Fault.code f)
  in
  let parse_fixture name =
    match Binfmt.Relf.parse (In_channel.with_open_bin
                               (Corrupt_corpus.path name) In_channel.input_all) with
    | _ -> Alcotest.failf "%s parsed" name
    | exception e -> e
  in
  check_code (parse_fixture "wrong_magic.relf") "parse.magic";
  check_code (parse_fixture "truncated_header.relf") "parse.truncated";
  check_code (parse_fixture "bad_section.relf") "parse.section";
  check_code (parse_fixture "bad_int.relf") "parse.int";
  check_code (X64.Decode.Decode_error { addr = 0x400000; byte = 0xff })
    "decode.insn";
  check_code (Sys_error "foo: No such file or directory") "io.read";
  check_code (Failure "anything") "run.fault";
  check_code (Invalid_argument "whatever") "run.fault";
  (* a Fault passes through unchanged, adopting the target *)
  let orig = Fault.v (Fault.Cache { what = "io"; key = "k"; detail = "d" }) in
  let f = Fault.of_exn ~target:"t" (Fault.Fault orig) in
  Alcotest.(check string) "passthrough code" "cache.io" (Fault.code f);
  Alcotest.(check (option string)) "adopted target" (Some "t") f.Fault.target;
  (* canonical severities come from the registry *)
  Alcotest.(check string) "cache.io severity" "degraded"
    (Fault.severity_to_string f.Fault.severity)

let test_fault_json () =
  let f =
    Fault.v ~target:"spec:mcf"
      (Fault.Parse { what = "magic"; detail = "bad \"magic\"" })
  in
  let j = Obs.Json.to_string (Fault.to_json f) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (let rec go i =
           i + String.length needle <= String.length j
           && (String.sub j i (String.length needle) = needle || go (i + 1))
         in
         go 0))
    [ {|"target": "spec:mcf"|}; {|"code": "parse.magic"|};
      {|"severity": "fatal"|}; {|\"magic\"|} ]

(* --- injection harness ---------------------------------------------- *)

let test_inject_spec_parsing () =
  (* canonical round-trip *)
  List.iter
    (fun s -> Alcotest.(check string) s s (Inj.to_string (inj s)))
    [ "none"; "cache@1"; "rewrite:site:40,harden"; "run%50~7"; "io:foo@2%10~3" ];
  Alcotest.(check bool) "none is none" true (Inj.is_none (inj "none"));
  Alcotest.(check bool) "empty is none" true (Inj.is_none (inj ""));
  (* malformed specs are rejected with a message *)
  List.iter
    (fun s ->
      match Inj.parse s with
      | Ok _ -> Alcotest.failf "spec %S should not parse" s
      | Error _ -> ())
    [ "bogus"; "cache@x"; "run%200"; "rewrite@0"; "unknownpoint" ]

let test_inject_points_raise_registered_faults () =
  List.iter
    (fun point ->
      let t = inj point in
      match Inj.hook t ~point ~label:"x" with
      | () -> Alcotest.failf "point %s did not fire" point
      | exception Fault.Fault f -> check_registered ("point " ^ point) (Fault.code f))
    Inj.points;
  (* a clause only fires at its own point and matching labels *)
  let t = inj "cache:alpha" in
  Inj.hook t ~point:"run" ~label:"alpha";
  Inj.hook t ~point:"cache" ~label:"beta";
  (match Inj.hook t ~point:"cache" ~label:"alpha" with
  | () -> Alcotest.fail "matching clause did not fire"
  | exception Fault.Fault f ->
    Alcotest.(check string) "cache fault" "cache.io" (Fault.code f));
  (* @N fires on the Nth hit per label only *)
  let t = inj "io@2" in
  Inj.hook t ~point:"io" ~label:"a";
  (match Inj.hook t ~point:"io" ~label:"a" with
  | () -> Alcotest.fail "@2 did not fire on second hit"
  | exception Fault.Fault _ -> ());
  Inj.hook t ~point:"io" ~label:"a";
  (* an independent label has its own counter *)
  Inj.hook t ~point:"io" ~label:"b"

let test_inject_pct_deterministic () =
  (* the %PCT~SEED decision is a pure function of (seed, point, label,
     hit index): two fresh harnesses visiting labels in different
     orders fire on exactly the same set *)
  let labels = List.init 40 (fun i -> Printf.sprintf "t%d" i) in
  let fired order =
    let t = inj "run%50~7" in
    List.filter
      (fun l ->
        match Inj.hook t ~point:"run" ~label:l with
        | () -> false
        | exception Fault.Fault _ -> true)
      order
    |> List.sort compare
  in
  let a = fired labels and b = fired (List.rev labels) in
  Alcotest.(check (list string)) "order-independent" a b;
  Alcotest.(check bool) "some fire" true (a <> []);
  Alcotest.(check bool) "some do not" true (List.length a < List.length labels)

let test_of_env_malformed () =
  Unix.putenv "REDFAT_FAULT" "not-a-point";
  (match Inj.of_env () with
  | _ -> Alcotest.fail "malformed REDFAT_FAULT should raise"
  | exception Fault.Fault f ->
    Alcotest.(check string) "input.script" "input.script" (Fault.code f));
  Unix.putenv "REDFAT_FAULT" "";
  Alcotest.(check bool) "unset/empty = none" true (Inj.is_none (Inj.of_env ()))

(* --- degradation ---------------------------------------------------- *)

let synth_bin eng = Pl.compile eng (Workloads.Synth.program ~seed:11 ())

let run_outputs eng hard =
  let hr =
    Pl.run_hardened eng
      ~options:{ Rt.default_options with mode = Rt.Log }
      ~inputs:[] hard.Rw.binary
  in
  (hr.Redfat.run.Redfat.outputs, hr.Redfat.verdict)

let test_degradation_preserves_behaviour () =
  let clean =
    with_engine @@ fun eng ->
    let hard = Pl.harden eng (synth_bin eng) in
    Alcotest.(check int) "clean has no degradations" 0
      (hard.Rw.stats.Rw.degraded_sites + hard.Rw.stats.Rw.skipped_sites);
    run_outputs eng hard
  in
  (* every site's first emission attempt faults -> retried as
     Redzone-only *)
  let degraded =
    with_engine ~inject:(inj "rewrite@1") @@ fun eng ->
    let hard = Pl.harden eng (synth_bin eng) in
    Alcotest.(check bool) "sites degraded" true
      (hard.Rw.stats.Rw.degraded_sites > 0);
    Alcotest.(check int) "full checks all downgraded" 0
      hard.Rw.stats.Rw.full_sites;
    (match Pl.verify eng hard.Rw.binary with
    | Ok r -> Alcotest.(check bool) "degraded binary lints" true (Redfat.Verify.ok r)
    | Error e -> Alcotest.fail e);
    run_outputs eng hard
  in
  (* both attempts fault -> uninstrumented with elimtab skip records *)
  let skipped =
    with_engine ~inject:(inj "rewrite") @@ fun eng ->
    let hard = Pl.harden eng (synth_bin eng) in
    Alcotest.(check bool) "sites skipped" true
      (hard.Rw.stats.Rw.skipped_sites > 0);
    Alcotest.(check int) "nothing emitted" 0 hard.Rw.stats.Rw.checks_emitted;
    (match Pl.verify eng hard.Rw.binary with
    | Ok r ->
      Alcotest.(check bool) "skipped binary lints" true (Redfat.Verify.ok r);
      Alcotest.(check bool) "linter counts skips as degraded" true
        (r.Redfat.Verify.degraded > 0)
    | Error e -> Alcotest.fail e);
    run_outputs eng hard
  in
  Alcotest.(check (pair (list int) string))
    "degraded run behaves like clean"
    (fst clean, Redfat.verdict_to_string (snd clean))
    (fst degraded, Redfat.verdict_to_string (snd degraded));
  Alcotest.(check (pair (list int) string))
    "skipped run behaves like clean"
    (fst clean, Redfat.verdict_to_string (snd clean))
    (fst skipped, Redfat.verdict_to_string (snd skipped))

let test_strict_aborts_rewrite () =
  with_engine ~strict:true ~inject:(inj "rewrite") @@ fun eng ->
  match Pl.protect eng ~target:"t" (fun () -> Pl.harden eng (synth_bin eng)) with
  | Ok _ -> Alcotest.fail "strict engine should re-raise"
  | Error _ -> Alcotest.fail "strict protect returns Error"
  | exception Fault.Fault f ->
    Alcotest.(check string) "site fault surfaces" "rewrite.site" (Fault.code f)

(* --- degradation accounting ----------------------------------------- *)

let fail_all ~stage:_ ~site:_ = failwith "injected"

(* fixed site-keyed hooks: faults that depend only on the plan's patch
   address, so the same plans degrade or skip on every run *)
let site_hooks =
  [
    ("every attempt", fail_all);
    ( "first attempt",
      fun ~stage ~site:_ -> if stage = "emit" then failwith "injected" );
    ( "site mod 3",
      fun ~stage ~site ->
        let h = Hashtbl.hash site mod 3 in
        if h = 0 || (h = 1 && stage = "emit") then failwith "injected" );
    ( "site mod 7",
      fun ~stage:_ ~site -> if site mod 7 = 0 then failwith "injected" );
  ]

let kind_count (hard : Rw.t) kind =
  List.assoc kind hard.Rw.stats.Rw.checks_by_kind

let elimtab_count (hard : Rw.t) pred =
  let name = Dataflow.Elimtab.section_name in
  match Binfmt.Relf.find_section hard.Rw.binary name with
  | None -> 0
  | Some sec ->
    let t = Dataflow.Elimtab.parse sec.Binfmt.Relf.bytes in
    List.length (List.filter (fun (_, r) -> pred r) t.entries)

let test_all_faults_drop_no_global_elimination () =
  (* every plan is skipped, so no covering check was emitted and no
     drop by global elimination stands *)
  let bin = Workloads.Spec.binary (Workloads.Spec.find "omnetpp") in
  let hard = Rw.rewrite ~fault_hook:fail_all Rw.optimized bin in
  Alcotest.(check int) "eliminated_global" 0
    hard.Rw.stats.Rw.eliminated_global;
  Alcotest.(check int) "elide.dom" 0 (kind_count hard "elide.dom");
  Alcotest.(check int) "nothing emitted" 0 hard.Rw.stats.Rw.checks_emitted

let test_fault_counts_match_elimtab () =
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let bin = Workloads.Spec.binary b in
      List.iter
        (fun (oname, opts) ->
          List.iter
            (fun (hname, fault_hook) ->
              let hard = Rw.rewrite ~fault_hook opts bin in
              let what k = Printf.sprintf "%s %s %s: %s" b.name oname hname k in
              Alcotest.(check bool) (what "elide.dom >= 0") true
                (kind_count hard "elide.dom" >= 0);
              (* a drop stands only on an emitted covering check *)
              if hard.Rw.stats.Rw.checks_emitted = 0 then
                Alcotest.(check int) (what "elide.dom, nothing emitted") 0
                  (kind_count hard "elide.dom");
              List.iter
                (fun (kind, pred) ->
                  Alcotest.(check int) (what kind)
                    (elimtab_count hard pred) (kind_count hard kind))
                [
                  ("elide.clear", ( = ) Dataflow.Elimtab.Clear);
                  ( "elide.hoist",
                    function Dataflow.Elimtab.Hoist _ -> true | _ -> false );
                  ("degrade.skip", ( = ) Dataflow.Elimtab.Skip);
                ])
            site_hooks)
        [ ("optimized", Rw.optimized); ("with_hoist", Rw.with_hoist) ])
    Workloads.Spec.all

(* --- per-target batch isolation ------------------------------------- *)

let batch_targets = List.init 8 (fun i -> Printf.sprintf "t%d" i)

let run_batch ~jobs ~spec =
  with_engine ~jobs ~inject:(inj spec) @@ fun eng ->
  let results =
    Pl.map_targets eng
      (fun tgt ->
        if tgt = "t3" then
          ignore (Pl.load_relf eng (Corrupt_corpus.path "wrong_magic.relf"));
        let prog =
          Workloads.Synth.program
            ~seed:(int_of_string (String.sub tgt 1 (String.length tgt - 1)))
            ()
        in
        let hard = Pl.harden eng (Pl.compile eng prog) in
        hard.Rw.stats.Rw.checks_emitted)
      batch_targets
  in
  let outcome =
    List.map
      (function Ok n -> Printf.sprintf "ok:%d" n | Error f -> Fault.code f)
      results
  in
  let recorded =
    List.map
      (fun (f : Fault.t) -> (Option.value f.Fault.target ~default:"", Fault.code f))
      (Engine.Report.faults (Pl.report eng))
  in
  (outcome, recorded)

let test_batch_isolation_parallel_eq_sequential () =
  (* one corrupt target plus pct-injected harden faults: the rest of
     the batch completes, and jobs=1 and jobs=4 agree exactly *)
  let spec = "harden:t5,harden%40~9" in
  let seq_outcome, seq_faults = run_batch ~jobs:1 ~spec in
  let par_outcome, par_faults = run_batch ~jobs:4 ~spec in
  Alcotest.(check (list string)) "outcomes parallel == sequential"
    seq_outcome par_outcome;
  Alcotest.(check (list (pair string string)))
    "recorded faults parallel == sequential" seq_faults par_faults;
  (* the corrupt target failed with its parse code, t5 with the
     injected harden code, and at least one target succeeded *)
  Alcotest.(check string) "t3 parse fault" "parse.magic" (List.nth seq_outcome 3);
  Alcotest.(check string) "t5 harden fault" "rewrite.abort"
    (List.nth seq_outcome 5);
  Alcotest.(check bool) "others complete" true
    (List.exists
       (fun s -> String.length s > 3 && String.sub s 0 3 = "ok:")
       seq_outcome);
  List.iter (fun (_, c) -> check_registered "batch fault" c) seq_faults

let test_transient_fault_retries () =
  (* a cache fault on the first hit only: protect's bounded retry makes
     the target succeed, and no fault is recorded as an Error *)
  with_engine ~cache:true ~inject:(inj "cache@1") @@ fun eng ->
  match
    Pl.protect eng ~target:"t" (fun () ->
        Pl.harden eng (synth_bin eng))
  with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "transient fault not retried: %s" (Fault.code f)

(* --- cache self-healing --------------------------------------------- *)

let art_magic = "REDFAT-ART7\n"

let overwrite path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let test_cache_selfheal () =
  with_temp_dir @@ fun dir ->
  let file = Filename.concat dir "k1.art" in
  let c1 = Cache.create ~dir () in
  Alcotest.(check int) "computed" 41 (Cache.memo c1 ~key:"k1" (fun () -> 41));
  Alcotest.(check bool) "stored with current magic" true
    (String.length (In_channel.with_open_bin file In_channel.input_all)
     > String.length art_magic);
  (* stale: recognizable but older format magic *)
  overwrite file "REDFAT-ART2\nold-blob";
  let c2 = Cache.create ~dir () in
  Alcotest.(check int) "stale recomputed" 42 (Cache.memo c2 ~key:"k1" (fun () -> 42));
  Alcotest.(check int) "stale counted" 1 (Cache.stats c2).Cache.stale;
  (* corrupt header *)
  overwrite file "garbage";
  let c3 = Cache.create ~dir () in
  Alcotest.(check int) "corrupt recomputed" 43
    (Cache.memo c3 ~key:"k1" (fun () -> 43));
  Alcotest.(check int) "corrupt counted" 1 (Cache.stats c3).Cache.corrupt;
  (* right magic, unreadable blob (torn write / bit rot) *)
  overwrite file (art_magic ^ "not a marshal blob");
  let c4 = Cache.create ~dir () in
  Alcotest.(check int) "torn blob recomputed" 44
    (Cache.memo c4 ~key:"k1" (fun () -> 44));
  Alcotest.(check int) "torn blob counted corrupt" 1
    (Cache.stats c4).Cache.corrupt;
  (* after healing, the rewritten artifact is served normally *)
  let c5 = Cache.create ~dir () in
  Alcotest.(check int) "healed artifact hits" 44
    (Cache.memo c5 ~key:"k1" (fun () -> 99));
  Alcotest.(check int) "hit counted" 1 (Cache.stats c5).Cache.hits;
  (* a damaged partition artifact: each engine hardens under a preset
     the dir has no manifest for, so it must consult the slices *)
  let slices_file () =
    match
      List.filter
        (String.starts_with ~prefix:"slices-")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one slices artifact, found %d" (List.length fs)
  in
  let harden_fresh name opts =
    with_engine ~cache:true ~cache_dir:dir @@ fun eng ->
    let bin = synth_bin eng in
    let hard = Pl.harden eng ~opts bin in
    Alcotest.(check bool) (name ^ ": cold bytes") true
      (Binfmt.Relf.serialize hard.Rw.binary
       = Binfmt.Relf.serialize (Rw.rewrite opts bin).Rw.binary);
    (Pl.cache_stats eng).Cache.corrupt
  in
  Alcotest.(check int) "clean slices" 0 (harden_fresh "clean" Rw.optimized);
  overwrite (slices_file ()) "garbage";
  Alcotest.(check int) "garbage slices counted corrupt" 1
    (harden_fresh "garbage slices" Rw.unoptimized);
  let file = slices_file () in
  let art = In_channel.with_open_bin file In_channel.input_all in
  let m = String.length art_magic in
  overwrite file (String.sub art 0 (m + ((String.length art - m) / 2)));
  Alcotest.(check int) "truncated slices counted corrupt" 1
    (harden_fresh "truncated slices" Rw.with_hoist)

(* one flipped byte in a disk artifact of any kind is caught by the
   header digest: the artifact is counted corrupt, deleted and
   recomputed, and the answer equals the cold one.  Slices and fnart
   artifacts are only read on a manifest miss, so their rounds delete
   the manifests first. *)
let test_cache_digest_catches_flips () =
  with_temp_dir @@ fun dir ->
  let b = Workloads.Spec.find "mcf" in
  let answer eng =
    let bin = Pl.compile eng (Workloads.Spec.program b) in
    let allow =
      Pl.profile eng ~test_suite:[ Workloads.Spec.train_inputs b ] bin
    in
    let hard =
      Pl.harden eng ~opts:{ Rw.optimized with allowlist = Some allow } bin
    in
    ( Binfmt.Relf.serialize bin,
      allow,
      Binfmt.Relf.serialize hard.Rw.binary )
  in
  let cold = with_engine ~cache:true ~cache_dir:dir answer in
  let files kind =
    List.filter
      (String.starts_with ~prefix:(kind ^ "-"))
      (Array.to_list (Sys.readdir dir))
    |> List.map (Filename.concat dir)
  in
  List.iter
    (fun kind ->
      if kind = "slices" || kind = "fnart" then
        List.iter Sys.remove (files "manifest");
      let targets = files kind in
      Alcotest.(check bool) (kind ^ " artifacts on disk") true (targets <> []);
      List.iter
        (fun f ->
          let art = Bytes.of_string (In_channel.with_open_bin f In_channel.input_all) in
          let i = Bytes.length art / 2 in
          Bytes.set art i (Char.chr (Char.code (Bytes.get art i) lxor 0x10));
          overwrite f (Bytes.to_string art))
        targets;
      with_engine ~cache:true ~cache_dir:dir @@ fun eng ->
      Alcotest.(check bool) (kind ^ ": fresh answer") true (answer eng = cold);
      Alcotest.(check bool) (kind ^ ": cache.corrupt counted") true
        (Obs.counter (Pl.obs eng) "cache.corrupt" >= 1))
    [ "compile"; "profile"; "manifest"; "slices"; "fnart" ]

let test_injected_runs_do_not_pollute_cache () =
  with_temp_dir @@ fun dir ->
  (* an injected run caches its (degraded) artifact under an
     inject-specific key; a clean engine over the same dir recomputes *)
  let degraded_checks =
    with_engine ~cache:true ~cache_dir:dir ~inject:(inj "rewrite@1")
    @@ fun eng -> (Pl.harden eng (synth_bin eng)).Rw.stats.Rw.degraded_sites
  in
  Alcotest.(check bool) "injected run degraded" true (degraded_checks > 0);
  with_engine ~cache:true ~cache_dir:dir @@ fun eng ->
  let hard = Pl.harden eng (synth_bin eng) in
  Alcotest.(check int) "clean engine rebuilds cleanly" 0
    hard.Rw.stats.Rw.degraded_sites

let tests =
  [
    Alcotest.test_case "registry well-formed" `Quick test_registry_well_formed;
    Alcotest.test_case "of_exn classification" `Quick test_of_exn_classification;
    Alcotest.test_case "fault JSON shape" `Quick test_fault_json;
    Alcotest.test_case "inject spec parsing" `Quick test_inject_spec_parsing;
    Alcotest.test_case "inject points raise registered faults" `Quick
      test_inject_points_raise_registered_faults;
    Alcotest.test_case "inject pct deterministic" `Quick
      test_inject_pct_deterministic;
    Alcotest.test_case "REDFAT_FAULT validation" `Quick test_of_env_malformed;
    Alcotest.test_case "degradation preserves behaviour" `Quick
      test_degradation_preserves_behaviour;
    Alcotest.test_case "strict aborts rewrite" `Quick test_strict_aborts_rewrite;
    Alcotest.test_case "all faults: no global elimination stands" `Quick
      test_all_faults_drop_no_global_elimination;
    Alcotest.test_case "fault counts match the elimtab" `Quick
      test_fault_counts_match_elimtab;
    Alcotest.test_case "batch isolation: parallel == sequential" `Quick
      test_batch_isolation_parallel_eq_sequential;
    Alcotest.test_case "transient faults retried" `Quick
      test_transient_fault_retries;
    Alcotest.test_case "cache self-healing" `Quick test_cache_selfheal;
    Alcotest.test_case "cache digest catches flips" `Quick
      test_cache_digest_catches_flips;
    Alcotest.test_case "injected runs do not pollute cache" `Quick
      test_injected_runs_do_not_pollute_cache;
  ]
