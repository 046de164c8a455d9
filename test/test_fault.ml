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
    Pl.run eng ~inputs:[] hard.Rw.binary
      (Hardened { Rt.default_options with mode = Rt.Log })
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

(* an independent reader of the pack format (see lib/engine/cache.ml):
   the magic, then records of a state byte, key length (u16 LE), blob
   length (u32 LE), the blob's MD5, the key and the blob *)
let pack_magic = "REDFAT-PACK1\n"

let overwrite path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let packs dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pack")
  |> List.sort compare
  |> List.map (Filename.concat dir)

type record = { key : string; off : int; blob_off : int; blob_len : int }

(* the whole records of a pack's contents, in order *)
let records s =
  let rec go off acc =
    if off + 23 > String.length s then List.rev acc
    else
      let kl = String.get_uint16_le s (off + 1) in
      let bl =
        Int32.to_int (String.get_int32_le s (off + 3)) land 0xffff_ffff
      in
      let next = off + 23 + kl + bl in
      if next > String.length s then List.rev acc
      else
        go next
          ({ key = String.sub s (off + 23) kl; off; blob_off = off + 23 + kl;
             blob_len = bl } :: acc)
  in
  go (String.length pack_magic) []

let encode_record key blob =
  let b = Bytes.create 23 in
  Bytes.set b 0 'L';
  Bytes.set_uint16_le b 1 (String.length key);
  Bytes.set_int32_le b 3 (Int32.of_int (String.length blob));
  Bytes.blit_string (Digest.string blob) 0 b 7 16;
  Bytes.to_string b ^ key ^ blob

(* every (pack, record) whose key has the [kind-] prefix *)
let records_of_kind dir kind =
  List.concat_map
    (fun f ->
      List.filter_map
        (fun r ->
          if String.starts_with ~prefix:(kind ^ "-") r.key then Some (f, r)
          else None)
        (records (read_file f)))
    (packs dir)

(* apply [f] to the bytes of pack [file] in place *)
let edit_pack file f =
  let b = Bytes.of_string (read_file file) in
  f b;
  overwrite file (Bytes.to_string b)

let test_cache_selfheal () =
  with_temp_dir @@ fun dir ->
  let c1 = Cache.create ~dir () in
  Alcotest.(check int) "computed" 41 (Cache.memo c1 ~key:"k1" (fun () -> 41));
  let file =
    match packs dir with
    | [ f ] -> f
    | fs -> Alcotest.failf "expected one pack, found %d" (List.length fs)
  in
  Alcotest.(check bool) "stored with current magic" true
    (let s = read_file file in
     String.length s > String.length pack_magic
     && String.starts_with ~prefix:pack_magic s);
  (* stale: a directory an older build wrote, one file per artifact *)
  Sys.remove file;
  let art = Filename.concat dir "k1.art" in
  overwrite art "REDFAT-ART7\nold-blob";
  let c2 = Cache.create ~dir () in
  Alcotest.(check int) "stale recomputed" 42
    (Cache.memo c2 ~key:"k1" (fun () -> 42));
  Alcotest.(check int) "stale counted" 1 (Cache.stats c2).Cache.stale;
  Alcotest.(check bool) "stale file removed" false (Sys.file_exists art);
  (* corrupt header: the record's header is garbage *)
  let file = List.hd (packs dir) in
  overwrite file (pack_magic ^ "garbage, not a record header");
  let c3 = Cache.create ~dir () in
  Alcotest.(check int) "corrupt recomputed" 43
    (Cache.memo c3 ~key:"k1" (fun () -> 43));
  Alcotest.(check int) "corrupt counted" 1 (Cache.stats c3).Cache.corrupt;
  (* right framing and digest, unreadable blob (a build with other
     types, or bit rot before the digest was taken) *)
  let file = List.nth (packs dir) 1 in
  overwrite file (pack_magic ^ encode_record "k1" "not a marshal blob");
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
  (* a damaged partition record: each engine hardens under a preset
     the dir has no manifest for, so it must consult the slices *)
  let slices_record () =
    match records_of_kind dir "slices" with
    | [ x ] -> x
    | xs ->
      Alcotest.failf "expected one slices record, found %d" (List.length xs)
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
  let file, r = slices_record () in
  edit_pack file (fun b -> Bytes.blit_string "garbage" 0 b r.off 7);
  Alcotest.(check int) "garbage slices counted corrupt" 1
    (harden_fresh "garbage slices" Rw.unoptimized);
  (* the slices blob cut to its first half, the rest of the pack intact *)
  let file, r = slices_record () in
  let s = read_file file in
  let half = r.blob_len / 2 in
  let hdr = Bytes.of_string (String.sub s r.off (r.blob_off - r.off)) in
  Bytes.set_int32_le hdr 3 (Int32.of_int half);
  overwrite file
    (String.sub s 0 r.off ^ Bytes.to_string hdr
    ^ String.sub s r.blob_off half
    ^ String.sub s (r.blob_off + r.blob_len)
        (String.length s - r.blob_off - r.blob_len));
  Alcotest.(check int) "truncated slices counted corrupt" 1
    (harden_fresh "truncated slices" Rw.with_hoist)

(* one flipped byte in a disk record of any kind is caught by the
   record's digest: the record is counted corrupt, marked dead and
   recomputed, and the answer equals the cold one.  Slices and fnart
   records are only read on a manifest miss, so their rounds mark the
   manifests dead first. *)
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
  let live kind =
    List.filter
      (fun (f, r) -> (read_file f).[r.off] = 'L')
      (records_of_kind dir kind)
  in
  List.iter
    (fun kind ->
      if kind = "slices" || kind = "fnart" then
        List.iter
          (fun (f, r) -> edit_pack f (fun b -> Bytes.set b r.off 'D'))
          (live "manifest");
      let targets = live kind in
      Alcotest.(check bool) (kind ^ " records on disk") true (targets <> []);
      List.iter
        (fun (f, r) ->
          edit_pack f (fun b ->
              let i = r.blob_off + (r.blob_len / 2) in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10))))
        targets;
      with_engine ~cache:true ~cache_dir:dir @@ fun eng ->
      Alcotest.(check bool) (kind ^ ": fresh answer") true (answer eng = cold);
      Alcotest.(check bool) (kind ^ ": cache.corrupt counted") true
        (Obs.counter (Pl.obs eng) "cache.corrupt" >= 1))
    [ "compile"; "profile"; "manifest"; "slices"; "fnart" ]

(* a pack cut short inside its last record (a writer killed mid-write)
   loses that record only: the others are served, the cut one reads as
   still being written — a miss, not damage — and a later store of it
   is served again *)
let test_cache_truncated_pack () =
  with_temp_dir @@ fun dir ->
  let value k = String.make 100 k.[1] in
  let c1 = Cache.create ~dir () in
  List.iter (fun k -> Cache.put c1 ~key:k (value k)) [ "k1"; "k2"; "k3" ];
  let file = List.hd (packs dir) in
  let s = read_file file in
  let r3 = List.nth (records s) 2 in
  overwrite file (String.sub s 0 (r3.blob_off + (r3.blob_len / 2)));
  let c2 = Cache.create ~dir () in
  let get c k : string option = Cache.find_opt c ~key:k in
  let served name c k =
    Alcotest.(check (option string)) name (Some (value k)) (get c k)
  in
  served "k1 served" c2 "k1";
  served "k2 served" c2 "k2";
  Alcotest.(check (option string)) "cut record misses" None (get c2 "k3");
  Alcotest.(check int) "not counted corrupt" 0 (Cache.stats c2).Cache.corrupt;
  Alcotest.(check int) "two disk hits" 2 (Cache.stats c2).Cache.hits_disk;
  Cache.put c2 ~key:"k3" (value "k3");
  served "re-stored record served" (Cache.create ~dir ()) "k3"

(* a store that cannot reach the disk (here the cache directory is a
   regular file; the suite runs as root, so permission bits would not
   stop it) is no store: it counts one retry, and the memory tier
   still serves the artifact *)
let test_cache_failed_store_accounting () =
  with_temp_dir @@ fun dir ->
  Sys.mkdir dir 0o755;
  let file = Filename.concat dir "not-a-dir" in
  overwrite file "x";
  let events = ref [] in
  let c = Cache.create ~dir:file ~notify:(fun e -> events := e :: !events) () in
  Cache.put c ~key:"k" 7;
  let st = Cache.stats c in
  Alcotest.(check int) "nothing stored" 0 st.Cache.stores;
  Alcotest.(check int) "one retry" 1 st.Cache.retries;
  Alcotest.(check (list string)) "store-failed notified, store not"
    [ "store-failed" ] !events;
  Alcotest.(check (option int)) "memory tier serves it" (Some 7)
    (Cache.find_opt c ~key:"k");
  Alcotest.(check int) "memory hit" 1 (Cache.stats c).Cache.hits_mem

(* the directory removed and re-created under a live cache, as the
   benchmark and the rebuild night do between runs: the next store
   goes to a new pack, not to the unlinked one, and is found again *)
let test_cache_dir_recreated () =
  with_temp_dir @@ fun dir ->
  let c = Cache.create ~dir () in
  Cache.put c ~key:"k1" 1;
  List.iter Sys.remove (packs dir);
  Sys.rmdir dir;
  Sys.mkdir dir 0o755;
  Cache.put c ~key:"k2" 2;
  Alcotest.(check int) "both appended" 2 (Cache.stats c).Cache.stores;
  Alcotest.(check int) "a new pack" 1 (List.length (packs dir));
  let get c k : int option = Cache.find_opt c ~key:k in
  Alcotest.(check (option int)) "own lookup" (Some 2) (get c "k2");
  let c' = Cache.create ~dir () in
  Alcotest.(check (option int)) "k2 on disk" (Some 2) (get c' "k2");
  Alcotest.(check (option int)) "k1 went with the directory" None
    (get c' "k1");
  Alcotest.(check int) "served from disk" 1 (Cache.stats c').Cache.hits_disk

(* more than 16 packs are merged into the opening cache's pack, one
   copy per key, damaged records dropped and counted; old-format
   artifact files are removed, each counted stale once *)
let test_cache_merges_packs () =
  with_temp_dir @@ fun dir ->
  for i = 1 to 17 do
    let c = Cache.create ~dir () in
    Cache.put c ~key:"shared" "s";
    Cache.put c ~key:(Printf.sprintf "k%d" i) i;
    Cache.close c
  done;
  Alcotest.(check int) "17 packs" 17 (List.length (packs dir));
  (* flip a blob byte of k5 *)
  let f, r =
    List.find
      (fun (_, r) -> r.key = "k5")
      (List.concat_map
         (fun f -> List.map (fun r -> (f, r)) (records (read_file f)))
         (packs dir))
  in
  edit_pack f (fun b ->
      let i = r.blob_off in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1)));
  overwrite (Filename.concat dir "a.art") "REDFAT-ART7\nold";
  overwrite (Filename.concat dir "b.art") "REDFAT-ART6\nold";
  let c = Cache.create ~dir () in
  let st = Cache.stats c in
  Alcotest.(check int) "old files stale" 2 st.Cache.stale;
  Alcotest.(check int) "damaged record dropped" 1 st.Cache.corrupt;
  Alcotest.(check int) "merged into one pack" 1 (List.length (packs dir));
  Alcotest.(check bool) "old files removed" false
    (Sys.file_exists (Filename.concat dir "a.art"));
  Alcotest.(check int) "one record per key" 17
    (List.length (records (read_file (List.hd (packs dir)))));
  for i = 1 to 17 do
    Alcotest.(check (option int)) (Printf.sprintf "k%d" i)
      (if i = 5 then None else Some i)
      (Cache.find_opt c ~key:(Printf.sprintf "k%d" i))
  done;
  Alcotest.(check (option string)) "shared" (Some "s")
    (Cache.find_opt c ~key:"shared")

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
    Alcotest.test_case "cache: truncated pack loses one record" `Quick
      test_cache_truncated_pack;
    Alcotest.test_case "cache: failed store is no store" `Quick
      test_cache_failed_store_accounting;
    Alcotest.test_case "cache: directory re-created under a live cache"
      `Quick test_cache_dir_recreated;
    Alcotest.test_case "cache: too many packs are merged" `Quick
      test_cache_merges_packs;
    Alcotest.test_case "injected runs do not pollute cache" `Quick
      test_injected_runs_do_not_pollute_cache;
  ]
