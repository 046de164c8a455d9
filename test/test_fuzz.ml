(* The fuzzing fleet: campaign determinism (same seed => byte-identical
   report, for any --jobs), crash dedup, minimizer soundness (the
   minimized input still trips the original (code, site) pair), the
   coverage-feedback scheduler, the parser-campaign triage contract
   over the shared corrupt corpus, and profile campaigns growing the
   allow-list test suite (paper §5). *)

open Minic.Ast
open Minic.Build
module Pl = Engine.Pipeline
module Campaign = Fuzz.Campaign
module Corpus = Fuzz.Corpus
module Mutate = Fuzz.Mutate
module Rw = Redfat.Rewrite

let with_engine ?(jobs = 1) f =
  let eng = Pl.create ~jobs ~cache:false () in
  Fun.protect ~finally:(fun () -> Pl.close eng) (fun () -> f eng)

(* small budgets and step caps keep the suite fast; the hang case still
   needs enough steps for benign inputs to finish *)
let config = { Campaign.default_config with budget = 96; max_steps = 20_000 }

let hardened ?(backend = Backend.Check_backend.default) eng id =
  let c = Workloads.Fuzzbugs.find id in
  let bin = Pl.compile eng c.Workloads.Fuzzbugs.program in
  (Pl.harden eng ~opts:{ Rw.optimized with Rw.backend } bin).Rw.binary

let campaign ?backend ?(config = config) eng id =
  Campaign.run_exec eng ~config ~target:("bug:" ^ id)
    (hardened ?backend eng id)

(* heap stores hidden behind input-dependent branches: a naive seed
   input covers only the always-taken path *)
let gated =
  Minic.Codegen.compile
    (Minic.Ast.program
       [
         func ~name:"main"
           [
             let_ "a" (alloc_elems (i 16));
             let_ "x" Input;
             (* always executed *)
             set (v "a") (i 0) (v "x");
             (* threshold-gated paths, AFL-discoverable by +-1 mutations *)
             if_ (v "x" >: i 4) [ set (v "a") (i 1) (i 11) ] [];
             if_ (v "x" >: i 60) [ set (v "a") (i 2) (i 22) ] [];
             if_ (v "x" &: i 1 =: i 1) [ set (v "a") (i 3) (i 33) ] [];
             (* a second input gates one more *)
             let_ "y" Input;
             if_ (v "y" >: i 2) [ set (v "a") (i 4) (i 44) ] [];
             let_ "s" (i 0);
             for_ "j" (i 0) (i 16)
               [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
             print_ (v "s");
             free_ (v "a");
             return_ (i 0);
           ];
       ])

let profile_config seed budget = { config with Campaign.seed; budget }

let profile_campaign ?(jobs = 1) ~seed ~budget bin =
  with_engine ~jobs @@ fun eng ->
  Campaign.run_profile eng ~config:(profile_config seed budget)
    ~target:"gated" ~seeds:[ [ 0 ] ] bin

(* --- determinism ----------------------------------------------------- *)

let test_same_seed_same_report () =
  with_engine @@ fun eng ->
  let a = campaign eng "oob-read" and b = campaign eng "oob-read" in
  Alcotest.(check string)
    "same seed, same report" (Campaign.to_json a) (Campaign.to_json b)

let test_jobs_do_not_change_report () =
  let run jobs = with_engine ~jobs @@ fun eng -> campaign eng "oob-read" in
  let seq = run 1 and par = run 4 in
  Alcotest.(check string)
    "report independent of --jobs" (Campaign.to_json seq)
    (Campaign.to_json par);
  let pseq = with_engine ~jobs:1 @@ fun eng ->
    Campaign.run_parse eng ~config ~which:Campaign.Minic_parser
      ~seeds:[ "func main() { return 0; }"; "" ] ()
  and ppar = with_engine ~jobs:4 @@ fun eng ->
    Campaign.run_parse eng ~config ~which:Campaign.Minic_parser
      ~seeds:[ "func main() { return 0; }"; "" ] ()
  in
  Alcotest.(check string)
    "parse report independent of --jobs" (Campaign.to_json pseq)
    (Campaign.to_json ppar);
  let prseq, sseq = profile_campaign ~jobs:1 ~seed:7 ~budget:96 gated
  and prpar, spar = profile_campaign ~jobs:4 ~seed:7 ~budget:96 gated in
  Alcotest.(check string)
    "profile report independent of --jobs" (Campaign.to_json prseq)
    (Campaign.to_json prpar);
  Alcotest.(check bool) "profile suite independent of --jobs" true
    (sseq = spar)

let test_seed_changes_report () =
  with_engine @@ fun eng ->
  let a = campaign eng "oob-read" in
  let b =
    campaign ~config:{ config with Campaign.seed = 99 } eng "oob-read"
  in
  (* the found bug set is seed-independent ground truth; the exec
     stream (crash counts, discovery indices) is not *)
  let codes (r : Campaign.report) =
    List.sort compare
      (List.map (fun (b : Campaign.bug) -> (b.b_code, b.b_site)) r.r_bugs)
  in
  Alcotest.(check bool) "both seeds find the planted bug" true
    (codes a <> [] && codes a = codes b)

(* --- dedup and the oracle -------------------------------------------- *)

let test_dedup_by_code_and_site () =
  with_engine @@ fun eng ->
  let r = campaign eng "oob-read" in
  let keys =
    List.map (fun (b : Campaign.bug) -> (b.b_code, b.b_site)) r.r_bugs
  in
  Alcotest.(check bool) "bug keys are distinct" true
    (List.length keys = List.length (List.sort_uniq compare keys));
  let collapsed =
    List.fold_left (fun a (b : Campaign.bug) -> a + b.b_count) 0 r.r_bugs
  in
  Alcotest.(check int) "every crash collapses into exactly one bug"
    r.r_crashes collapsed;
  List.iter
    (fun (b : Campaign.bug) ->
      Alcotest.(check bool) ("classified: " ^ b.b_code) true
        (b.b_class <> "" && b.b_first_exec >= 1 && b.b_first_exec <= r.r_execs))
    r.r_bugs

let test_hang_oracle () =
  with_engine @@ fun eng ->
  let r = campaign eng "hang" in
  Alcotest.(check bool) "the hang dedups to run.timeout at site 0" true
    (List.exists
       (fun (b : Campaign.bug) -> b.b_code = "run.timeout" && b.b_site = 0)
       r.r_bugs)

(* one execution per planted bug x backend x {benign, attack}, plus
   Log-mode runs of a profiling build: the oracle's (code, site) and
   the coverage and cycles around it, pinned row by row *)
let oracle_rows () =
  with_engine @@ fun eng ->
  let row name (res : Campaign.exec_result) =
    Printf.sprintf "%s: %s cycles=%d edges=%d sites=%d" name
      (match res.x_crash with
      | Some c -> Printf.sprintf "%s@%#x" c.Fuzz.Oracle.c_code c.c_site
      | None -> "ok")
      res.x_cycles
      (List.length res.x_edges)
      (List.length res.x_sites)
  in
  let exec runtime name bin inputs =
    row name
      (Campaign.execute_image ~max_steps:config.Campaign.max_steps runtime
         (Redfat.image bin) inputs)
  in
  let libredfat = Redfat.Hardened Redfat.Runtime.default_options in
  let planted =
    List.concat_map
      (fun backend ->
        List.concat_map
          (fun (c : Workloads.Fuzzbugs.case) ->
            let bin = hardened ~backend eng c.id in
            let name kind =
              Printf.sprintf "%s/%s/%s" c.id
                (Backend.Check_backend.name backend)
                kind
            in
            [
              exec libredfat (name "benign") bin c.benign;
              exec libredfat (name "attack") bin c.attack;
            ])
          Workloads.Fuzzbugs.all)
      Backend.Check_backend.all
  in
  let profiling id =
    let c = Workloads.Fuzzbugs.find id in
    let prof =
      (Pl.harden eng ~opts:Rw.profiling_build (Pl.compile eng c.program))
        .Rw.binary
    in
    [
      exec Redfat.Profiling ("profiling/" ^ id ^ "/benign") prof c.benign;
      exec Redfat.Profiling ("profiling/" ^ id ^ "/attack") prof c.attack;
    ]
  in
  planted @ profiling "oob-write" @ profiling "double-free"

let expected_oracle_rows =
  [
    "oob-write/redzone/benign: ok cycles=367 edges=2 sites=1";
    "oob-write/redzone/attack: detect.use-after-free@0x40006e cycles=348 edges=3 sites=2";
    "oob-read/redzone/benign: ok cycles=400 edges=3 sites=2";
    "oob-read/redzone/attack: detect.use-after-free@0x400054 cycles=336 edges=3 sites=2";
    "off-by-one/redzone/benign: ok cycles=369 edges=2 sites=1";
    "off-by-one/redzone/attack: detect.use-after-free@0x40006a cycles=631 edges=4 sites=2";
    "uaf/redzone/benign: ok cycles=405 edges=3 sites=2";
    "uaf/redzone/attack: detect.use-after-free@0x40007c cycles=354 edges=3 sites=2";
    "double-free/redzone/benign: ok cycles=367 edges=2 sites=1";
    "double-free/redzone/attack: detect.bad-free@0x40006a cycles=355 edges=2 sites=1";
    "hang/redzone/benign: ok cycles=384 edges=2 sites=1";
    "hang/redzone/attack: run.timeout@0 cycles=22415 edges=2 sites=1";
    "oob-write/lowfat/benign: ok cycles=367 edges=2 sites=1";
    "oob-write/lowfat/attack: detect.oob-upper@0x40006e cycles=348 edges=3 sites=2";
    "oob-read/lowfat/benign: ok cycles=400 edges=3 sites=2";
    "oob-read/lowfat/attack: detect.oob-upper@0x400054 cycles=336 edges=3 sites=2";
    "off-by-one/lowfat/benign: ok cycles=369 edges=2 sites=1";
    "off-by-one/lowfat/attack: detect.oob-upper@0x40006a cycles=631 edges=4 sites=2";
    "uaf/lowfat/benign: ok cycles=405 edges=3 sites=2";
    "uaf/lowfat/attack: detect.use-after-free@0x40007c cycles=354 edges=3 sites=2";
    "double-free/lowfat/benign: ok cycles=367 edges=2 sites=1";
    "double-free/lowfat/attack: detect.bad-free@0x40006a cycles=355 edges=2 sites=1";
    "hang/lowfat/benign: ok cycles=384 edges=2 sites=1";
    "hang/lowfat/attack: run.timeout@0 cycles=22415 edges=2 sites=1";
    "oob-write/temporal/benign: ok cycles=367 edges=2 sites=1";
    "oob-write/temporal/attack: detect.oob-lower@0x40006e cycles=348 edges=3 sites=2";
    "oob-read/temporal/benign: ok cycles=400 edges=3 sites=2";
    "oob-read/temporal/attack: detect.oob-lower@0x400054 cycles=336 edges=3 sites=2";
    "off-by-one/temporal/benign: ok cycles=369 edges=2 sites=1";
    "off-by-one/temporal/attack: detect.oob-lower@0x40006a cycles=631 edges=4 sites=2";
    "uaf/temporal/benign: ok cycles=405 edges=3 sites=2";
    "uaf/temporal/attack: detect.use-after-free@0x40007c cycles=354 edges=3 sites=2";
    "double-free/temporal/benign: ok cycles=367 edges=2 sites=1";
    "double-free/temporal/attack: detect.double-free@0x40006a cycles=355 edges=2 sites=1";
    "hang/temporal/benign: ok cycles=384 edges=2 sites=1";
    "hang/temporal/attack: run.timeout@0 cycles=22415 edges=2 sites=1";
    "profiling/oob-write/benign: ok cycles=367 edges=2 sites=1";
    "profiling/oob-write/attack: ok cycles=402 edges=3 sites=2";
    "profiling/double-free/benign: ok cycles=367 edges=2 sites=1";
    "profiling/double-free/attack: detect.bad-free@0x40006a cycles=355 edges=2 sites=1";
  ]

let test_oracle_table () =
  Alcotest.(check (list string))
    "(code, site) per execution" expected_oracle_rows (oracle_rows ())

let test_backends_disagree_on_classification () =
  (* the same planted a[8] write triages differently per backend — the
     diversity documented in docs/FUZZING.md and gated by table2x *)
  let code backend =
    with_engine @@ fun eng ->
    match (campaign ~backend eng "oob-write").r_bugs with
    | b :: _ -> b.Campaign.b_code
    | [] -> Alcotest.fail "campaign found no bug"
  in
  List.iter
    (fun b ->
      let c = code b in
      Alcotest.(check bool)
        (Backend.Check_backend.name b ^ " detects the planted write")
        true
        (String.length c > 7 && String.sub c 0 7 = "detect."))
    Backend.Check_backend.all

(* --- minimization ---------------------------------------------------- *)

let parse_rendered s =
  if s = "" then []
  else List.map int_of_string (String.split_on_char ',' s)

let test_minimized_input_still_crashes () =
  with_engine @@ fun eng ->
  let hard = hardened eng "oob-write" in
  let r = Campaign.run_exec eng ~config ~target:"bug:oob-write" hard in
  Alcotest.(check bool) "found the planted bug" true (r.r_bugs <> []);
  List.iter
    (fun (b : Campaign.bug) ->
      let res =
        Campaign.execute ~max_steps:config.Campaign.max_steps hard
          (parse_rendered b.b_min_input)
      in
      match res.Campaign.x_crash with
      | Some c ->
        Alcotest.(check string) "same code" b.b_code c.Fuzz.Oracle.c_code;
        Alcotest.(check int) "same site" b.b_site c.Fuzz.Oracle.c_site
      | None -> Alcotest.fail ("minimized input no longer crashes: " ^ b.b_code))
    r.r_bugs;
  (* the threshold gate (> 60) minimizes to the boundary itself *)
  (match r.r_bugs with
  | b :: _ -> Alcotest.(check string) "boundary found" "61" b.b_min_input
  | [] -> ())

let test_minimize_inputs_properties () =
  let still l = List.exists (fun x -> x > 60) l in
  let m = Campaign.minimize_inputs still [ 3; 127; 7; 0 ] in
  Alcotest.(check bool) "still satisfies the predicate" true (still m);
  (* passengers dropped; 127 halves to 63 (still crashing), 31 stops *)
  Alcotest.(check (list int)) "drops passengers, shrinks the survivor"
    [ 63 ] m

let test_minimize_bytes_properties () =
  let still s = String.length s >= 3 && String.sub s 0 3 = "REL" in
  let m = Campaign.minimize_bytes still "RELF1\n400000\n0\n1\n1\n" in
  Alcotest.(check bool) "still satisfies the predicate" true (still m);
  Alcotest.(check int) "cut to the witness prefix" 3 (String.length m)

(* --- the coverage-feedback scheduler --------------------------------- *)

let test_corpus_keeps_only_new_coverage () =
  let c = Corpus.create () in
  Alcotest.(check bool) "first input kept" true
    (Corpus.add c ~input:[ 1 ] ~edges:[ 10; 11 ] ~sites:[ 5 ]);
  Alcotest.(check bool) "same coverage dropped" false
    (Corpus.add c ~input:[ 2 ] ~edges:[ 10 ] ~sites:[ 5 ]);
  Alcotest.(check bool) "new edge kept" true
    (Corpus.add c ~input:[ 3 ] ~edges:[ 12 ] ~sites:[ 5 ]);
  Alcotest.(check bool) "new site kept" true
    (Corpus.add c ~input:[ 4 ] ~edges:[ 12 ] ~sites:[ 6 ]);
  Alcotest.(check int) "corpus size" 3 (Corpus.size c);
  Alcotest.(check int) "edges" 3 (Corpus.n_edges c);
  Alcotest.(check int) "sites" 2 (Corpus.n_sites c)

let test_scheduler_favors_new_edges () =
  let c = Corpus.create () in
  (* one-edge entry vs an eight-edge frontier opener *)
  ignore (Corpus.add c ~input:0 ~edges:[ 1 ] ~sites:[]);
  ignore (Corpus.add c ~input:1 ~edges:[ 2; 3; 4; 5; 6; 7; 8; 9 ] ~sites:[]);
  let rng = Mutate.Rng.create 42 in
  let picks = Array.make 2 0 in
  for _ = 1 to 1000 do
    match Corpus.schedule c rng with
    | Some i -> picks.(i) <- picks.(i) + 1
    | None -> Alcotest.fail "schedule on a non-empty corpus"
  done;
  Alcotest.(check bool)
    (Printf.sprintf "novel entry drawn more often (%d vs %d)" picks.(1)
       picks.(0))
    true
    (picks.(1) > picks.(0));
  Alcotest.(check bool) "low-novelty entry still drawn" true (picks.(0) > 0)

(* --- the parser campaigns and the corrupt corpus --------------------- *)

let test_corrupt_corpus_classified () =
  let fixtures = Corrupt_corpus.load () in
  Alcotest.(check bool) "corpus has fixtures" true (List.length fixtures >= 10);
  List.iter
    (fun (name, bytes) ->
      let res = Campaign.parse_once Campaign.Relf_parser bytes in
      match res.Campaign.x_crash with
      | Some c ->
        Alcotest.(check bool)
          (name ^ " rejected with a typed parse fault, got " ^ c.c_code)
          true
          (String.length c.Fuzz.Oracle.c_code > 6
          && String.sub c.Fuzz.Oracle.c_code 0 6 = "parse.")
      | None -> Alcotest.fail (name ^ ": corrupt fixture parsed cleanly"))
    (Corrupt_corpus.relf ());
  List.iter
    (fun (name, bytes) ->
      let res = Campaign.parse_once Campaign.Minic_parser bytes in
      match res.Campaign.x_crash with
      | Some c ->
        Alcotest.(check string)
          (name ^ " rejected by the MiniC parser")
          "parse.source" c.Fuzz.Oracle.c_code
      | None -> Alcotest.fail (name ^ ": corrupt fixture parsed cleanly"))
    (Corrupt_corpus.minic ())

let test_parse_campaign_never_crashes_parser () =
  with_engine @@ fun eng ->
  let seeds = List.map snd (Corrupt_corpus.relf ()) in
  let r = Campaign.run_parse eng ~config ~which:Campaign.Relf_parser ~seeds () in
  Alcotest.(check bool) "finds at least one rejection class" true
    (r.r_bugs <> []);
  List.iter
    (fun (b : Campaign.bug) ->
      Alcotest.(check bool)
        ("typed rejection, not a parser crash: " ^ b.b_code)
        true
        (String.length b.b_code > 6 && String.sub b.b_code 0 6 = "parse."))
    r.r_bugs

(* the x64 decoder target: a clean sweep is no crash, a cut or garbled
   blob is the typed decode.insn rejection, and a campaign from real
   code finds nothing else *)
let test_x64_campaign_stays_typed () =
  let code =
    (Binfmt.Relf.text_exn (Workloads.Spec.binary (Workloads.Spec.find "mcf")))
      .bytes
  in
  let clean = Campaign.parse_once Campaign.X64_decoder code in
  Alcotest.(check bool) "real code sweeps clean" true (clean.x_crash = None);
  Alcotest.(check bool) "opcodes are coverage" true
    (List.length clean.x_edges > 10);
  let code_of (r : Campaign.exec_result) =
    Option.map (fun (c : Fuzz.Oracle.crash) -> c.c_code) r.x_crash
  in
  Alcotest.(check (option string)) "a cut instruction" (Some "decode.insn")
    (code_of (Campaign.parse_once Campaign.X64_decoder "\x02\x00\x01"));
  Alcotest.(check (option string)) "an unknown opcode" (Some "decode.insn")
    (code_of (Campaign.parse_once Campaign.X64_decoder "\x90\xff"));
  with_engine @@ fun eng ->
  let r =
    Campaign.run_parse eng ~config ~which:Campaign.X64_decoder
      ~seeds:[ String.sub code 0 64; "" ] ()
  in
  Alcotest.(check (list string)) "only typed rejections" [ "decode.insn" ]
    (List.map (fun (b : Campaign.bug) -> b.b_code) r.r_bugs)

(* --- profile campaigns: growing the allow-list test suite ----------- *)

let test_profile_deterministic () =
  let r1, s1 = profile_campaign ~seed:7 ~budget:101 gated in
  let r2, s2 = profile_campaign ~seed:7 ~budget:101 gated in
  Alcotest.(check int) "same coverage" r1.r_cov_sites r2.r_cov_sites;
  Alcotest.(check bool) "same corpus" true (s1 = s2);
  Alcotest.(check string) "same report" (Campaign.to_json r1)
    (Campaign.to_json r2)

(* budgets count the seed: 1 runs the seed alone, 301 adds 300 mutated
   inputs *)
let test_profile_beats_seed_coverage () =
  let seed_only, s0 = profile_campaign ~seed:7 ~budget:1 gated in
  let fuzzed, s1 = profile_campaign ~seed:7 ~budget:301 gated in
  Alcotest.(check bool)
    (Printf.sprintf "coverage grew (%d -> %d sites)" seed_only.r_cov_sites
       fuzzed.r_cov_sites)
    true
    (fuzzed.r_cov_sites > seed_only.r_cov_sites);
  Alcotest.(check bool) "corpus grew" true
    (List.length s1 > List.length s0)

let test_profile_allowlist_grows () =
  (* the grown corpus yields a bigger allow-list than the naive seed *)
  with_engine @@ fun eng ->
  let naive = Pl.profile eng ~test_suite:[ [ 0 ] ] gated in
  let _, suite = profile_campaign ~seed:7 ~budget:301 gated in
  let fuzzed = Pl.profile eng ~test_suite:suite gated in
  Alcotest.(check bool)
    (Printf.sprintf "allow-list grew (%d -> %d)" (List.length naive)
       (List.length fuzzed))
    true
    (List.length fuzzed > List.length naive)

let test_profile_production_runs_clean () =
  let _, suite = profile_campaign ~seed:3 ~budget:201 gated in
  with_engine @@ fun eng ->
  let w = Pl.workflow eng ~train:suite ~inputs:[ 0; 0 ] gated in
  List.iter
    (fun inputs ->
      let hr =
        Redfat.(run ~inputs w.hard.binary (Hardened Runtime.default_options))
      in
      match hr.verdict with
      | Redfat.Finished 0 -> ()
      | v ->
        Alcotest.failf "inputs %s: %s"
          (String.concat "," (List.map string_of_int inputs))
          (Redfat.verdict_to_string v))
    [ [ 0; 0 ]; [ 5; 3 ]; [ 100; 9 ]; [ 61; 1 ] ]

(* the paper's §7.1 anti-idiom (a-24)[j+3] behind a gate and followed
   by one more heap store, then an ungated load: a LowFat false positive
   must neither stop the profiling run nor count as a bug *)
let anti_idiom =
  Minic.Codegen.compile
    (Minic.Ast.program
       [
         func ~name:"main"
           [
             let_ "a" (alloc_elems (i 16));
             let_ "x" Input;
             set (v "a") (i 0) (v "x");
             if_ (v "x" >: i 4)
               [
                 for_ "j" (i 0) (i 4)
                   [ Store (E8, v "a" -: i 24, v "j" +: i 3, v "j") ];
                 set (v "a") (i 5) (v "x");
               ]
               [];
             print_ (idx (v "a") (i 5));
             free_ (v "a");
             return_ (i 0);
           ];
       ])

let test_profile_survives_false_positive () =
  let detects (r : Campaign.report) =
    List.filter
      (fun (b : Campaign.bug) ->
        String.length b.b_code > 7 && String.sub b.b_code 0 7 = "detect.")
      r.r_bugs
  in
  let r, suite = profile_campaign ~seed:7 ~budget:96 anti_idiom in
  Alcotest.(check int) "every site reached, past the false positive" 4
    r.r_cov_sites;
  Alcotest.(check int) "no detect.* bug" 0 (List.length (detects r));
  Alcotest.(check int) "all but the anti-idiom site allow-listed" 3
    (List.length
       (with_engine (fun e -> Pl.profile e ~test_suite:suite anti_idiom)));
  (* the contrast: a Harden-mode campaign over the same profiling build
     stops at the false positive, never reaches the store behind it, and
     reports the false positive as a bug *)
  let prof = (Rw.rewrite Rw.profiling_build anti_idiom).binary in
  let h =
    with_engine @@ fun eng ->
    Campaign.run_exec eng ~config:(profile_config 7 96) ~target:"anti-idiom"
      prof
  in
  Alcotest.(check int) "Harden mode stops at the false positive" 3
    h.r_cov_sites;
  Alcotest.(check bool) "Harden mode reports it as a bug" true
    (detects h <> [])

(* registered as the [fuzzer] suite, the name these tests had when a
   separate profiling fuzzer ran them *)
let profile_tests =
  [
    Alcotest.test_case "deterministic" `Quick test_profile_deterministic;
    Alcotest.test_case "beats seed coverage" `Quick
      test_profile_beats_seed_coverage;
    Alcotest.test_case "allow-list grows" `Quick test_profile_allowlist_grows;
    Alcotest.test_case "fuzzed production clean" `Quick
      test_profile_production_runs_clean;
    Alcotest.test_case "survives a false positive" `Quick
      test_profile_survives_false_positive;
  ]

let tests =
  [
    Alcotest.test_case "same seed, same report" `Quick
      test_same_seed_same_report;
    Alcotest.test_case "--jobs does not change the report" `Slow
      test_jobs_do_not_change_report;
    Alcotest.test_case "different seeds, same bug set" `Quick
      test_seed_changes_report;
    Alcotest.test_case "crashes dedup by (code, site)" `Quick
      test_dedup_by_code_and_site;
    Alcotest.test_case "hang dedups to run.timeout" `Quick test_hang_oracle;
    Alcotest.test_case "oracle table per bug x backend" `Quick
      test_oracle_table;
    Alcotest.test_case "every backend detects the planted write" `Slow
      test_backends_disagree_on_classification;
    Alcotest.test_case "minimized inputs still crash" `Quick
      test_minimized_input_still_crashes;
    Alcotest.test_case "minimize_inputs shrinks to the boundary" `Quick
      test_minimize_inputs_properties;
    Alcotest.test_case "minimize_bytes keeps the witness prefix" `Quick
      test_minimize_bytes_properties;
    Alcotest.test_case "corpus keeps only new coverage" `Quick
      test_corpus_keeps_only_new_coverage;
    Alcotest.test_case "scheduler favors frontier openers" `Quick
      test_scheduler_favors_new_edges;
    Alcotest.test_case "corrupt corpus all classified" `Quick
      test_corrupt_corpus_classified;
    Alcotest.test_case "parser campaign stays typed" `Quick
      test_parse_campaign_never_crashes_parser;
    Alcotest.test_case "x64 decoder campaign stays typed" `Quick
      test_x64_campaign_stays_typed;
  ]
