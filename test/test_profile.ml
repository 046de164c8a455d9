(* The profile-based allow-list workflow (paper §5, Figure 5). *)

open Minic.Ast
open Minic.Build
module Rw = Redfat.Rewrite
module Rt = Redfat_rt.Runtime
module Pl = Engine.Pipeline

let eng = Pl.create ~cache:false ()

let log_opts = { Rt.default_options with mode = Rt.Log }

(* one idiomatic store, one anti-idiom store, both executed *)
let mixed_prog =
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          let_ "a" (alloc_elems (i 16));
          for_ "j" (i 0) (i 16) [ set (v "a") (v "j") (v "j") ];
          for_ "j" (i 0) (i 4)
            [ Store (E8, v "a" -: i 40, v "j" +: i 5, v "j") ];
          let_ "s" (i 0);
          for_ "j" (i 0) (i 16) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
          print_ (v "s");
          return_ (i 0);
        ];
    ]

let test_allowlist_file_roundtrip () =
  let path = Filename.temp_file "allow" ".lst" in
  let l = [ 0x400010; 0x400123; 0x40ffff ] in
  Profile.Allowlist.save path l;
  let l' = Profile.Allowlist.load path in
  Sys.remove path;
  Alcotest.(check (list int)) "round-trip" l l'

(* a non-hex line is parse.int naming the file and line, and the file
   is closed on the way out *)
let test_allowlist_bad_line () =
  let path = Corrupt_corpus.path "bad_hex.lst" in
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = fds () in
  (match Profile.Allowlist.load path with
  | l -> Alcotest.failf "loaded %d sites" (List.length l)
  | exception (Binfmt.Reader.Error err as e) ->
    Alcotest.(check string) "fault code" "parse.int"
      Engine.Fault.(code (of_exn e));
    Alcotest.(check string) "file" path err.src;
    Alcotest.(check int) "line" 3 err.line);
  Alcotest.(check int) "channel closed" before (fds ())

let test_allowlist_set_ops () =
  Alcotest.(check (list int)) "union" [ 1; 2; 3 ]
    (Profile.Allowlist.union [ 1; 3 ] [ 2; 3 ]);
  Alcotest.(check (list int)) "diff" [ 1 ]
    (Profile.Allowlist.diff [ 1; 3 ] [ 2; 3 ])

let test_naive_full_checking_false_positive () =
  let bin = Minic.Codegen.compile mixed_prog in
  let hard = Redfat.harden bin in
  let hr = Redfat.run hard.binary (Hardened Rt.default_options) in
  match hr.verdict with
  | Redfat.Detected _ -> () (* the anti-idiom trips naive full checking *)
  | v -> Alcotest.failf "expected a false positive, got %s"
           (Redfat.verdict_to_string v)

let test_workflow_removes_false_positive () =
  let bin = Minic.Codegen.compile mixed_prog in
  let { Pl.hard; base; _ } = Pl.workflow eng ~train:[ [] ] ~inputs:[] bin in
  (* the anti-idiom site fell back to redzone-only *)
  Alcotest.(check bool) "some site excluded" true
    (hard.stats.redzone_sites >= 1);
  Alcotest.(check bool) "idiomatic sites kept" true
    (hard.stats.full_sites >= 1);
  let hr = Redfat.run hard.binary (Hardened Rt.default_options) in
  (match hr.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "production run: %s" (Redfat.verdict_to_string v));
  (* output identical to baseline *)
  Alcotest.(check (list int)) "output" base.outputs hr.run.outputs

let test_unexecuted_sites_not_allowed () =
  (* a site behind an input-dependent branch: profiling with an input
     that skips it must leave it out of the allow-list (conservative) *)
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            let_ "m" Input;
            if_ (v "m" =: i 1) [ set (v "a") (i 0) (i 1) ] [];
            set (v "a") (i 1) (i 2);
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let allow_skip = Pl.profile eng ~test_suite:[ [ 0 ] ] bin in
  let allow_take = Pl.profile eng ~test_suite:[ [ 1 ] ] bin in
  Alcotest.(check bool) "branch-gated site missing when skipped" true
    (List.length allow_skip < List.length allow_take)

let test_multi_run_union () =
  (* two runs covering different branches: the union covers both *)
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            let_ "m" Input;
            if_ (v "m" =: i 1)
              [ set (v "a") (i 0) (i 1) ]
              [ set (v "a") (i 1) (i 2) ];
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let one = Pl.profile eng ~test_suite:[ [ 0 ] ] bin in
  let both = Pl.profile eng ~test_suite:[ [ 0 ]; [ 1 ] ] bin in
  Alcotest.(check bool) "union grows" true
    (List.length both > List.length one)

let test_sporadic_failure_excluded_across_runs () =
  (* a site that only fails for some inputs must be excluded even if
     another run passes it (failures intersect across the suite) *)
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 16));
            let_ "k" Input;
            (* base displaced by k elements: k=0 idiomatic, k=5 anti *)
            Store (E8, v "a" -: (v "k" <<: 3), v "k", i 1);
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let allow = Pl.profile eng ~test_suite:[ [ 0 ]; [ 5 ] ] bin in
  (* production build with that allow-list must not flag k=5 *)
  let hard =
    Redfat.harden ~opts:(Rw.production ~allowlist:allow) bin
  in
  let hr = Redfat.run ~inputs:[ 5 ] hard.binary (Hardened Rt.default_options) in
  match hr.verdict with
  | Redfat.Finished 0 -> ()
  | v -> Alcotest.failf "sporadic FP not suppressed: %s"
           (Redfat.verdict_to_string v)

let test_profiling_build_has_per_site_checks () =
  (* profiling builds must not merge checks (site granularity) *)
  let bin = Minic.Codegen.compile mixed_prog in
  let prof = Rw.rewrite Rw.profiling_build bin in
  let prod = Rw.rewrite Rw.optimized bin in
  Alcotest.(check bool) "profiling emits >= production checks" true
    (prof.stats.checks_emitted >= prod.stats.checks_emitted);
  Alcotest.(check int) "profiling: all sites full" 0
    prof.stats.redzone_sites

let test_incomplete_allowlist_still_protects () =
  (* redzone-only sites still catch incremental overflows *)
  let prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            let_ "k" Input;
            set (v "a") (v "k") (i 7);
            free_ (v "a");
            return_ (i 0);
          ];
      ]
  in
  let bin = Minic.Codegen.compile prog in
  (* empty allow-list: everything redzone-only *)
  let hard = Redfat.harden ~opts:(Rw.production ~allowlist:[]) bin in
  Alcotest.(check int) "no full sites" 0 hard.stats.full_sites;
  (* a[8] hits the next slot's metadata redzone: still detected *)
  let hr = Redfat.run ~inputs:[ 8 ] hard.binary (Hardened Rt.default_options) in
  match hr.verdict with
  | Redfat.Detected _ -> ()
  | v -> Alcotest.failf "redzone fallback failed: %s"
           (Redfat.verdict_to_string v)

let test_log_mode_records_and_continues () =
  let bin = Minic.Codegen.compile mixed_prog in
  let hard = Redfat.harden bin in
  let hr = Redfat.run hard.binary (Hardened log_opts) in
  (match hr.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "log mode aborted: %s" (Redfat.verdict_to_string v));
  Alcotest.(check bool) "errors recorded" true (Rt.errors hr.state <> [])

let tests =
  [
    Alcotest.test_case "allow-list file round-trip" `Quick
      test_allowlist_file_roundtrip;
    Alcotest.test_case "allow-list bad line" `Quick test_allowlist_bad_line;
    Alcotest.test_case "allow-list set ops" `Quick test_allowlist_set_ops;
    Alcotest.test_case "naive full checking FPs" `Quick
      test_naive_full_checking_false_positive;
    Alcotest.test_case "workflow removes FP" `Quick
      test_workflow_removes_false_positive;
    Alcotest.test_case "unexecuted sites not allowed" `Quick
      test_unexecuted_sites_not_allowed;
    Alcotest.test_case "multi-run union" `Quick test_multi_run_union;
    Alcotest.test_case "sporadic failures excluded" `Quick
      test_sporadic_failure_excluded_across_runs;
    Alcotest.test_case "profiling build granularity" `Quick
      test_profiling_build_has_per_site_checks;
    Alcotest.test_case "incomplete allow-list still protects" `Quick
      test_incomplete_allowlist_still_protects;
    Alcotest.test_case "log mode records and continues" `Quick
      test_log_mode_records_and_continues;
  ]
