(* The repository benchmark (see README.md and BENCHMARK.json).

     perf.exe --workload W --seed N [--seconds S] [--trace 0|1]
              [--out F.json] [--trace-out F.json]

   Runs one workload and prints every metric as `name value unit`,
   one `FAILED <workload> <op> <reason>` line per failed check, and as
   its last line one JSON object: {"correct", "attempted", "failed",
   "metrics"}; the exit code is 0 whenever that line is printed.

   --trace 0 reports the end-to-end metrics, timings in reference
   seconds (see Probe); --trace 1 measures the workload untraced and
   then traced (half of --seconds each) and reports the per-layer
   metrics, and --trace-out writes the traced phase's spans as Chrome
   trace-event JSON.  Without --workload, every workload runs in turn,
   each in a fresh child process, and --out collects their results
   keyed by workload. *)

open Perf_harness
module H = Harness

let usage () =
  prerr_endline
    "usage: perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
     [--out F.json] [--trace-out F.json]";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  trace_out : string option;
}

let parse_args argv =
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest when List.mem_assoc w Metrics.workloads ->
      go { o with workload = Some w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n -> go { o with seed = n } rest
      | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some s when s > 0.0 -> go { o with seconds = s } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = t = "1" } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--trace-out" :: f :: rest -> go { o with trace_out = Some f } rest
    | _ -> usage ()
  in
  go
    { workload = None; seed = 1; seconds = 15.0; trace = false; out = None;
      trace_out = None }
    argv

(* --- one workload ---------------------------------------------------- *)

type 's workload = {
  setup : H.ctx -> seed:int -> 's;
  setup_reps : int;
      (** set-ups per untraced run, [setup_s] being their median: a
          fixed count, so peak memory does not depend on speed *)
  measure : H.ctx -> 's -> seconds:float -> H.result;
}

type any = W : 's workload -> any

let workload = function
  | "table1" ->
    W { setup = Wl_table1.setup; setup_reps = 20; measure = Wl_table1.measure }
  | "fuzz" -> W { setup = Wl_fuzz.setup; setup_reps = 40; measure = Wl_fuzz.measure }
  | "rewrite" ->
    W { setup = Wl_rewrite.setup; setup_reps = 5; measure = Wl_rewrite.measure }
  | "serve" -> W { setup = Wl_serve.setup; setup_reps = 3; measure = Wl_serve.measure }
  | w -> invalid_arg w

let finite x = if Float.is_finite x then x else 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let tail_pct (r : H.result) = Option.value (Stats.tail_pct r.min_ops) ~default:50.0

let end_to_end ~setup_s (r : H.result) =
  [
    ("wall_s", r.wall_s);
    ("op_p50_us", Stats.median r.lat_us);
    ("op_tail_us", Stats.percentile r.lat_us (tail_pct r));
    ("setup_s", setup_s);
    ("peak_rss_mb", H.peak_rss_mb ());
  ]

let per_layer (c : H.ctx) ~(setup : H.ctx) ~(untraced : H.result)
    ~(traced : H.result) ~gc =
  let spans = Option.get c.spans in
  let reps = traced.reps in
  let per_rep v = v /. reps in
  let named n = Spans.total_named spans n in
  let tally = H.get c in
  let self = Spans.layer_self spans in
  let self_s l = Option.value (List.assoc_opt l self) ~default:0.0 in
  let timed =
    List.filter
      (fun (s : Spans.span) -> s.bench && s.name = "timed")
      (Spans.spans spans)
  in
  let timed_wall =
    List.fold_left (fun a (s : Spans.span) -> a +. (s.stop -. s.start)) 0.0 timed
  in
  let timed_self =
    List.fold_left
      (fun a ((s : Spans.span), self) ->
        if s.bench && s.name = "timed" then a +. self else a)
      0.0 (Spans.self_times spans)
  in
  let harden_s = named "harden" and verify_s = named "verify" in
  let vm_s = self_s "vm" in
  let campaign_s = tally "fuzz.campaign_s" in
  let execs = tally "fuzz.execs" in
  let exec_us = H.median_of c "fuzz.exec_us" in
  let fact name =
    List.find_map
      (fun (n, v, _) -> if n = name then Some v else None)
      traced.facts
    |> Option.value ~default:0.0
  in
  let hits k = tally (k ^ ".hit") and misses k = tally (k ^ ".miss") in
  let permille k = 1000.0 *. ratio (hits k) (hits k +. misses k) in
  let minor_words, major = gc in
  [
    ( "trace.overhead_permille",
      1000.0 *. (ratio traced.wall_s untraced.wall_s -. 1.0) );
    ("trace.covered_permille", 1000.0 *. (1.0 -. ratio timed_self timed_wall));
    ("op.samples", float_of_int (List.length traced.lat_us));
  ]
  @ List.map
      (fun l -> ("self." ^ l ^ "_s", per_rep (self_s l)))
      Metrics.self_layers
  @ [
      ("minic.compile_s", Spans.total_named (Option.get setup.spans) "compile");
      ("rewriter.harden_s", per_rep harden_s);
      ("rewriter.kinstr_per_s", ratio (tally "rewriter.instrs" /. 1000.0) harden_s);
      ("rewriter.recover_s", per_rep (named "rw.recover"));
      ("rewriter.collect_s", per_rep (named "rw.collect"));
      ("rewriter.plan_s", per_rep (named "rw.plan"));
      ("rewriter.elim_s", per_rep (named "rw.elim"));
      ("rewriter.emit_s", per_rep (named "rw.emit"));
      ("rewriter.blueprint_hit_permille", permille "blueprint");
      ("rewriter.partition_ms", per_rep (tally "rewriter.partition_ms"));
      ("rewriter.checks_emitted", per_rep (tally "rewriter.checks_emitted"));
      ("rewriter.trap_patches", per_rep (tally "rewriter.trap_patches"));
      ("rewriter.code_bytes", per_rep (tally "rewriter.code_bytes"));
      ("dataflow.verify_s", per_rep verify_s);
      ("dataflow.operands_per_s", ratio (tally "dataflow.operands") verify_s);
      ("dataflow.unaccounted", per_rep (tally "dataflow.unaccounted"));
      ("engine.cache.hit_mem", per_rep (tally "engine.cache.hit_mem"));
      ("engine.cache.hit_disk", per_rep (tally "engine.cache.hit_disk"));
      ("engine.cache.miss", per_rep (tally "engine.cache.miss"));
      ("engine.cache.store", per_rep (tally "engine.cache.store"));
      ("engine.harden_hit_us_p50", H.median_of c "engine.harden_hit_us");
      ("engine.fn_reuse_permille", permille "harden.fn");
      ("engine.cache_disk_mb", per_rep (tally "engine.cache_disk_mb"));
      ("vm.run_s", per_rep vm_s);
      ("vm.runs", per_rep (tally "vm.runs"));
      ("vm.msteps_per_s", ratio (tally "vm.steps" /. 1e6) vm_s);
      ("vm.minor_words_per_step", ratio (tally "vm.minor_words") (tally "vm.steps"));
      ("vm.mcycles", per_rep (tally "vm.cycles" /. 1e6));
      ("vm.prepare_us", H.median_of c "vm.prepare_us");
      ("baselines.memcheck_s", per_rep (named "memcheck"));
      ("profile.profile_s", per_rep (named "profile"));
      ("table1.overhead_gm", fact "table1.overhead_gm");
      ("fuzz.campaign_s", per_rep campaign_s);
      ("fuzz.execs", per_rep execs);
      ("fuzz.execs_per_s", ratio execs campaign_s);
      ("fuzz.crashes", per_rep (tally "fuzz.crashes"));
      ("fuzz.cov_edges", per_rep (tally "fuzz.cov_edges"));
      ("fuzz.unique_bugs", per_rep (tally "fuzz.unique_bugs"));
      ("fuzz.exec_us_p50", exec_us);
      ( "fuzz.sched_permille",
        if campaign_s > 0.0 then
          1000.0 *. (1.0 -. (execs *. exec_us *. 1e-6 /. campaign_s))
        else 0.0 );
      ("serve.sat_rps", tally "serve.sat_rps");
      ("serve.harden_us_p50", H.median_of c "serve.harden_us");
      ("serve.verify_us_p50", H.median_of c "serve.verify_us");
      ("serve.trace_us_p50", H.median_of c "serve.trace_us");
      ("serve.queue_us_p99", tally "serve.queue_us_p99");
      ("serve.gen_late_us_max", tally "serve.gen_late_us_max");
      ("serve.lru.hit_permille", tally "serve.lru.hit_permille");
      ("serve.lru.bytes", tally "serve.lru.bytes");
      ("serve.lru.admitted", tally "serve.lru.admitted");
      ("gc.minor_mwords", per_rep (minor_words /. 1e6));
      ("gc.major_collections", per_rep major);
    ]

let json_result ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite v)
          (Metrics.find name).unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed (String.concat ", " m)

let print_line name v unit = Printf.printf "%-34s %.6g %s\n" name v unit

let run_one o name =
  let (W w) = workload name in
  let setup c = Clock.time (fun () -> w.setup c ~seed:o.seed) in
  let ctxs = ref [] in
  let ctx ~traced =
    let c = H.ctx ~workload:name ~traced in
    ctxs := c :: !ctxs;
    c
  in
  let metrics, facts, notes =
    if not o.trace then begin
      let c = ctx ~traced:false in
      (* set up several times, report the median, keep the last state *)
      let runs =
        List.init w.setup_reps (fun _ ->
            let (st, dt), speed = Probe.bracket (fun () -> setup c) in
            (st, dt /. speed))
      in
      let st = fst (List.nth runs (w.setup_reps - 1)) in
      let r = w.measure c st ~seconds:o.seconds in
      ( end_to_end ~setup_s:(Stats.median (List.map snd runs)) r,
        r.facts,
        [ Printf.sprintf "op_tail_us is p%g of %d operations (at least %d)"
            (tail_pct r) (List.length r.lat_us) r.min_ops;
          Printf.sprintf
            "timings in reference seconds: median speed factor %.4f over %d \
             probe samples"
            (Probe.median ()) (Probe.samples ()) ] )
    end
    else begin
      let cs = ctx ~traced:true in
      let st, _ = setup cs in
      let untraced = w.measure (ctx ~traced:false) st ~seconds:(o.seconds /. 2.0) in
      let ct = ctx ~traced:true in
      let g0 = Gc.quick_stat () in
      let traced = w.measure ct st ~seconds:(o.seconds /. 2.0) in
      let g1 = Gc.quick_stat () in
      let gc =
        (g1.minor_words -. g0.minor_words,
         float_of_int (g1.major_collections - g0.major_collections))
      in
      (match o.trace_out with
      | Some f ->
        Out_channel.with_open_text f (fun oc ->
            Out_channel.output_string oc (Spans.to_chrome (Option.get ct.spans)))
      | None -> ());
      (per_layer ct ~setup:cs ~untraced ~traced ~gc, traced.facts, [])
    end
  in
  let attempted = List.fold_left (fun a (c : H.ctx) -> a + c.attempted) 0 !ctxs in
  let failed = List.fold_left (fun a (c : H.ctx) -> a + c.failed) 0 !ctxs in
  List.iter (fun (n, v) -> print_line n v (Metrics.find n).unit) metrics;
  List.iter
    (fun (n, v, u) ->
      if not (List.mem_assoc n metrics) then print_line n v u)
    facts;
  List.iter (Printf.printf "# %s\n") notes;
  Printf.printf "# %s: %d operations checked, %d failed\n" name attempted failed;
  let json = json_result ~attempted ~failed metrics in
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (json ^ "\n")))
    o.out;
  print_endline json;
  0

(* --- every workload, each in a fresh child --------------------------- *)

let run_all o =
  let results =
    List.map
      (fun (name, _) ->
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed";
             string_of_int o.seed; "--seconds"; Printf.sprintf "%g" o.seconds;
             "--trace"; (if o.trace then "1" else "0") |]
        in
        let ic = Unix.open_process_args_in Sys.executable_name args in
        let last = ref "" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        let exited = Unix.close_process_in ic = Unix.WEXITED 0 in
        let correct =
          match Obs.Json.parse !last with
          | Ok j -> Obs.Json.member "correct" j = Some (Obs.Json.Bool true)
          | Error _ -> false
        in
        (name, !last, exited && correct))
      Metrics.workloads
  in
  Option.iter
    (fun f ->
      Out_channel.with_open_text f (fun oc ->
          Printf.fprintf oc "{\n%s\n}\n"
            (String.concat ",\n"
               (List.map (fun (n, j, _) -> Printf.sprintf "%S: %s" n j) results))))
    o.out;
  if List.for_all (fun (_, _, ok) -> ok) results then 0 else 1

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  let code =
    Fun.protect
      ~finally:(fun () ->
        (* the scratch root holds only per-run directories, each
           removed when its rep ends *)
        try Sys.rmdir H.scratch_root with Sys_error _ -> ())
      (fun () ->
        match o.workload with Some w -> run_one o w | None -> run_all o)
  in
  exit code
