(* tools/bench_diff, the bench-regression gate: run the executable over
   small baseline/fresh report pairs and check its exit code -- 0 when
   the fresh report holds every gated figure, 1 when any rule fires,
   2 on a bad command line.  Also: a failed bench/main.exe run leaves
   the report the gate reads untouched. *)

let exe = "../tools/bench_diff.exe"

type target = {
  name : string;
  cycles : int option;
  overheads : (string * float) list;
  counters : (string * int) list;
}

(* one target per experiment the gate runs, carrying a counter for
   every rule *)
let base =
  [
    {
      name = "spec:a";
      cycles = Some 1000;
      overheads = [ ("merge", 2.0); ("memcheck", 10.0) ];
      counters =
        [ ("checks_emitted", 10); ("emit.full.w", 6);
          ("backend.temporal.checks_emitted", 12);
          ("hoist.checks_emitted", 8); ("hoisted_checks", 3);
          ("eliminated_global", 4) ];
    };
    {
      name = "serve:fleet";
      cycles = None;
      overheads = [];
      counters = [ ("serve.warm.hit_permille", 950); ("serve.p50_us", 9) ];
    };
    {
      name = "rebuild:fleet";
      cycles = None;
      overheads = [];
      counters =
        [ ("rebuild.fns_reused_permille", 990); ("rebuild.cold_ms", 33);
          ("rebuild.minor_words_per_instr", 94) ];
    };
    {
      name = "fuzz:redzone";
      cycles = None;
      overheads = [];
      counters = [ ("fuzz.unique_bugs", 8); ("fuzz.execs", 2400) ];
    };
  ]

let render ts =
  let obj kvs = "{ " ^ String.concat ", " kvs ^ " }" in
  let field k v = Printf.sprintf "%S: %s" k v in
  let target t =
    obj
      ([ field "name" (Printf.sprintf "%S" t.name);
         field "wall_seconds" "0.5" ]
      @ (match t.cycles with
        | Some c -> [ field "baseline_cycles" (string_of_int c) ]
        | None -> [])
      @ (if t.overheads = [] then []
         else
           [ field "overheads"
               (obj
                  (List.map
                     (fun (k, x) -> field k (Printf.sprintf "%g" x))
                     t.overheads)) ])
      @ [ field "counters"
            (obj
               (List.map (fun (k, n) -> field k (string_of_int n)) t.counters))
        ])
  in
  obj
    [ field "targets" ("[ " ^ String.concat ", " (List.map target ts) ^ " ]") ]

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let write path s =
  Out_channel.with_open_text path (fun oc -> output_string oc s)

(* exit code of bench_diff on (base, fresh) *)
let diff fresh =
  let b = tmp "bench_diff_base.json" and f = tmp "bench_diff_fresh.json" in
  write b (render base);
  write f (render fresh);
  Sys.command
    (Printf.sprintf "%s %s %s > %s 2>&1" exe b f (tmp "bench_diff_out.txt"))

let in_target name g = List.map (fun t -> if t.name = name then g t else t) base

let set_counter name k v =
  in_target name (fun t ->
      let set (k', n) = (k', if k' = k then v else n) in
      { t with counters = List.map set t.counters })

let drop_counter name k =
  in_target name (fun t ->
      { t with counters = List.remove_assoc k t.counters })

let check_exit what expected fresh =
  Alcotest.(check int) what expected (diff fresh)

let test_identical () = check_exit "identical pair" 0 base

let test_within_bounds () =
  (* growth under 10%, improvements and ungated wall-clock counters
     all pass *)
  check_exit "cycles +9%" 0
    (in_target "spec:a" (fun t -> { t with cycles = Some 1090 }));
  check_exit "overhead +9%" 0
    (in_target "spec:a" (fun t ->
         { t with overheads = [ ("merge", 2.18); ("memcheck", 10.0) ] }));
  check_exit "fewer checks" 0 (set_counter "spec:a" "checks_emitted" 9);
  check_exit "more bugs" 0 (set_counter "fuzz:redzone" "fuzz.unique_bugs" 9);
  check_exit "less allocation" 0
    (set_counter "rebuild:fleet" "rebuild.minor_words_per_instr" 60);
  check_exit "ungated counters move" 0
    (List.map
       (fun t ->
         if t.name = "rebuild:fleet" then
           { t with counters = List.remove_assoc "rebuild.cold_ms" t.counters }
         else t)
       (set_counter "serve:fleet" "serve.p50_us" 900))

let test_missing_target () =
  check_exit "target missing" 1
    (List.filter (fun t -> t.name <> "rebuild:fleet") base)

let test_cycles () =
  check_exit "cycles +11%" 1
    (in_target "spec:a" (fun t -> { t with cycles = Some 1110 }))

let test_overhead () =
  check_exit "overhead +11%" 1
    (in_target "spec:a" (fun t ->
         { t with overheads = [ ("merge", 2.22); ("memcheck", 10.0) ] }));
  check_exit "overhead missing" 1
    (in_target "spec:a" (fun t -> { t with overheads = [ ("merge", 2.0) ] }))

let test_emitted_up () =
  List.iter
    (fun k ->
      let b = List.assoc k (List.hd base).counters in
      check_exit (k ^ " up") 1 (set_counter "spec:a" k (b + 1)))
    [ "checks_emitted"; "emit.full.w"; "backend.temporal.checks_emitted";
      "hoist.checks_emitted" ]

(* allocation per rewritten instruction is a cost: it may not grow *)
let test_alloc_up () =
  check_exit "minor words per instruction up" 1
    (set_counter "rebuild:fleet" "rebuild.minor_words_per_instr" 95)

let test_gains_down () =
  List.iter
    (fun (name, k, v) -> check_exit (k ^ " down") 1 (set_counter name k v))
    [ ("spec:a", "hoisted_checks", 2);
      ("serve:fleet", "serve.warm.hit_permille", 949);
      ("rebuild:fleet", "rebuild.fns_reused_permille", 989);
      ("fuzz:redzone", "fuzz.unique_bugs", 7) ]

let test_gated_missing () =
  List.iter
    (fun (name, k) -> check_exit (k ^ " missing") 1 (drop_counter name k))
    [ ("spec:a", "checks_emitted"); ("spec:a", "hoisted_checks");
      ("serve:fleet", "serve.warm.hit_permille");
      ("rebuild:fleet", "rebuild.fns_reused_permille");
      ("rebuild:fleet", "rebuild.minor_words_per_instr");
      ("fuzz:redzone", "fuzz.unique_bugs") ]

let test_usage () =
  let b = tmp "bench_diff_base.json" in
  write b (render base);
  Alcotest.(check int) "dropped --max-regress flag" 2
    (Sys.command
       (Printf.sprintf "%s %s %s --max-regress 5 > %s 2>&1" exe b b
          (tmp "bench_diff_out.txt")))

(* bench/main.exe checks --out for writability before it runs; a run
   that then fails (here: an unknown experiment, rejected after the
   check) must leave an existing report's bytes as they were *)
let bench_exe = "../bench/main.exe"

let test_failed_run_keeps_report () =
  let out = tmp "bench_keep_report.json" in
  let report = "{\"targets\": []}\n" in
  write out report;
  let code =
    Sys.command
      (Printf.sprintf "%s no-such-experiment --no-cache --out %s > %s 2>&1"
         bench_exe out (tmp "bench_keep_report.txt"))
  in
  Alcotest.(check int) "run fails" 1 code;
  Alcotest.(check string) "report unchanged" report
    (In_channel.with_open_text out In_channel.input_all)

let tests =
  List.map
    (fun (name, f) ->
      Alcotest.test_case name `Quick (fun () ->
          if not (Sys.file_exists exe) then Alcotest.skip ();
          f ()))
    [
      ("identical pair passes", test_identical);
      ("within bounds passes", test_within_bounds);
      ("missing target fails", test_missing_target);
      ("cycles over 10% fail", test_cycles);
      ("overhead over 10% or missing fails", test_overhead);
      ("emitted checks up fail", test_emitted_up);
      ("allocation per instruction up fails", test_alloc_up);
      ("gains down fail", test_gains_down);
      ("gated counter missing fails", test_gated_missing);
      ("bad command line exits 2", test_usage);
      ("failed bench run keeps its report", test_failed_run_keeps_report);
    ]
