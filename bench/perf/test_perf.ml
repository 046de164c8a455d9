(* Unit tests of the benchmark harness: order statistics, the tail
   percentile rule, self time on nested and folded spans, open-loop
   latency, and the drift gate between the metric table and
   BENCHMARK.json. *)

open Perf_harness

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

(* --- order statistics (values from Python's statistics module) ------ *)

let () =
  check "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  let q (a, b, c) (x, y, z) = close a x && close b y && close c z in
  check "quartiles 1..10"
    (q (Stats.quartiles (List.init 10 (fun i -> float (i + 1)))) (2.75, 5.5, 8.25));
  check "quartiles 1..5" (q (Stats.quartiles [ 5.; 4.; 3.; 2.; 1. ]) (1.5, 3.0, 4.5));
  check "quartiles of two" (q (Stats.quartiles [ 3.; 1. ]) (0.5, 2.0, 3.5))

(* --- the tail rule: highest percentile with >= 10 samples beyond ---- *)

let () =
  check "p99.9 needs 10000" (Stats.tail_pct 10000 = Some 99.9);
  check "p99 at 1000" (Stats.tail_pct 1000 = Some 99.0);
  check "p95 below 1000" (Stats.tail_pct 999 = Some 95.0);
  check "p75 at 40" (Stats.tail_pct 40 = Some 75.0);
  check "p50 at 20" (Stats.tail_pct 20 = Some 50.0);
  check "none below 20" (Stats.tail_pct 19 = None);
  List.iter
    (fun n ->
      match Stats.tail_pct n with
      | Some p -> check (Printf.sprintf "10 beyond at n=%d" n) (Stats.beyond ~n p >= 10)
      | None -> ())
    [ 20; 45; 199; 200; 1080; 5000 ];
  let xs = List.init 100 (fun i -> float (i + 1)) in
  check "nearest-rank p95" (close (Stats.percentile xs 95.0) 95.0);
  check "nearest-rank p50" (close (Stats.percentile xs 50.0) 50.0)

(* --- self time on nested spans -------------------------------------- *)

let span ?(bench = true) id parent layer name start stop =
  { Spans.id; parent; rid = ""; layer; name; start; stop; bench }

let self_of t =
  let l = Spans.layer_self t in
  fun layer -> Option.value (List.assoc_opt layer l) ~default:0.0

let () =
  let t = Spans.create () in
  t.spans <-
    [ span 1 0 "a" "root" 0. 10.; span 2 1 "b" "x" 2. 5.;
      span 3 2 "c" "y" 3. 4.; span 4 1 "b" "x" 6. 9. ];
  let self = self_of t in
  check "root self" (close (self "a") 4.);
  check "child self minus grandchild" (close (self "b") 5.);
  check "leaf self" (close (self "c") 1.);
  check "total named counts outermost"
    (close (Spans.total_named t "x") 6.);
  (* children overlapping each other or the parent's edges are
     counted once, clipped to the parent *)
  check "union clipped"
    (close (Spans.covered ~lo:0. ~hi:10. [ (-1., 2.); (1., 3.); (8., 12.) ]) 5.)

(* folding engine spans: a top-level engine span goes under the bench
   span containing its midpoint even when its clock is slightly off,
   takes that span's layer, and its own children keep theirs *)
let () =
  let t = Spans.create () in
  t.spans <- [ span 1 0 "bench" "timed" 0. 10.; span 2 1 "baselines" "memcheck" 1. 4.;
               span 3 1 "engine" "harden" 5. 9. ];
  t.next <- 4;
  let obs name cat start dur depth =
    { Obs.sp_name = name; sp_cat = cat; sp_tid = 0; sp_start = start;
      sp_dur = dur; sp_depth = depth }
  in
  let layer_of ~cat ~name:_ = if cat = "rewrite" then "rewriter" else "vm" in
  Spans.fold t ~origin:100. ~since:neg_infinity ~layer_of
    [ obs "run" "stage" (-99.0000005) 3. 0;  (* starts before its bench span *)
      obs "harden" "stage" (-95.) 4. 0;
      obs "rw.plan" "rewrite" (-94.) 2. 1 ];
  let find name = List.find (fun (s : Spans.span) -> (not s.bench) && s.name = name) (Spans.spans t) in
  check "stage run under memcheck" ((find "run").parent = 2);
  check "stage run inherits baselines" ((find "run").layer = "baselines");
  check "stage harden under harden" ((find "harden").parent = 3);
  check "rw.plan under stage harden" ((find "rw.plan").parent = (find "harden").id);
  check "rw.plan keeps its layer" ((find "rw.plan").layer = "rewriter");
  let self = self_of t in
  check "engine self excludes rw.plan" (close (self "engine") 2.);
  check "rewriter self" (close (self "rewriter") 2.)

(* --- open loop: latency from the due time --------------------------- *)

let () =
  (* every reading advances the clock, so the generator's spin ends *)
  let clock = ref 0.0 in
  let now () =
    clock := !clock +. 1e-7;
    !clock
  in
  (* 1000 req/s; request 0 stalls for 10 ms, the rest take 0.1 ms *)
  let samples =
    Openloop.run ~now ~rate:1000.0 ~n:15 (fun i ->
        clock := !clock +. if i = 0 then 0.010 else 0.0001)
  in
  let lat i = Openloop.latency samples.(i) in
  check "stalled request" (Float.abs (lat 0 -. 0.010) < 1e-6);
  (* request 1 was due at 1 ms and could only start at 10 ms *)
  check "queued behind the stall" (Float.abs (lat 1 -. 0.0091) < 1e-6);
  check "queue delay" (Float.abs (Openloop.queue_delay samples.(1) -. 0.009) < 1e-6);
  check "queued flag" samples.(1).queued;
  (* the backlog drains; request 14 is due at 14 ms, after it *)
  check "drained" ((not samples.(14).queued) && Float.abs (lat 14 -. 0.0001) < 1e-6);
  check "generator on time"
    (Array.for_all (fun s -> Openloop.gen_late s < 1e-6) samples)

(* --- drift gate: the harness's metric table == BENCHMARK.json ------- *)

let () =
  let json =
    match
      Obs.Json.parse (In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all)
    with
    | Ok j -> j
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let arr k = Option.value (Option.bind (Obs.Json.member k json) Obs.Json.to_arr) ~default:[] in
  let str k j = Option.bind (Obs.Json.member k j) Obs.Json.to_str in
  let num k j = Option.bind (Obs.Json.member k j) Obs.Json.to_num in
  let workloads = List.map (fun j -> (str "name" j, str "why" j)) (arr "workloads") in
  check "workloads match"
    (workloads
    = List.map (fun (n, w) -> (Some n, Some w)) Metrics.workloads);
  List.iter
    (fun (_, why) -> check "why fits one line" (String.length why <= 200))
    Metrics.workloads;
  let metric (m : Metrics.metric) =
    (Some m.name, Some m.unit, Some (Metrics.better_name m.better), m.bound)
  in
  let from_json j = (str "name" j, str "unit" j, str "better" j, num "bound" j) in
  check "end_to_end match"
    (List.map from_json (arr "end_to_end") = List.map metric Metrics.end_to_end);
  check "per_layer match"
    (List.map from_json (arr "per_layer") = List.map metric Metrics.per_layer);
  check "setup_s present"
    (List.exists (fun (m : Metrics.metric) -> m.name = "setup_s") Metrics.end_to_end)

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "bench/perf: all checks passed"
