(* bench_diff: the bench-regression gate.

   Compares a freshly generated bench report (make bench-gate writes
   BENCH_gate.json) against the committed baseline (bench/baseline.json)
   and fails, exiting 1, when hardening quality regresses:

     - a baseline target disappeared from the fresh report;
     - a target's deterministic baseline cycle count grew by more
       than 10%;
     - any overhead ratio (unopt/elim/batch/merge/...) grew by more
       than 10%, or disappeared;
     - the emitted-check counters went up: checks_emitted, any
       per-check-kind emit.* counter, any per-backend backend.*
       counter, or hoist.checks_emitted (more emitted checks means
       the eliminators lost ground, under any backend or with loop
       hoisting enabled);
     - any *minor_words_per_instr counter went up (the rewriter and
       its audit allocate more per instruction: a deterministic cost
       proxy, counted on the calling domain);
     - the hoisted_checks counter went down (the loop hoister proved
       fewer loops than before: lost static-analysis ground);
     - any *hit_permille counter went down (a cache tier -- e.g. the
       serving hot tier's warm-phase hit rate -- lost ground);
     - any *reused_permille counter went down (the function-granular
       incremental rebuild reused fewer per-function artifacts: the
       partition or cache keys lost precision);
     - any *unique_bugs counter went down (a fuzz smoke campaign
       stopped finding a seeded bug it used to find: the oracle,
       scheduler or mutators regressed);
     - a baseline counter named by these rules is missing from the
       fresh report.

   New targets and improvements are fine.  wall_seconds and every
   other counter (serve latencies and throughput, rebuild.*_ms) are
   ignored: they are the machine-dependent figures; cycles come from
   the deterministic VM cost model.

   Re-baselining after an intentional change:
     make bench-baseline   # regenerates bench/baseline.json
   then commit the new baseline together with the change that
   explains it.

   usage: bench_diff baseline.json fresh.json  (exit 2 on a bad argument
   or an unreadable report) *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* the most a cycle count or overhead may grow, in percent *)
let max_regress = 10.0

let baseline_path, fresh_path =
  let flag = String.starts_with ~prefix:"-" in
  match List.tl (Array.to_list Sys.argv) with
  | [ b; f ] when not (flag b || flag f) -> (b, f)
  | _ -> die "usage: bench_diff baseline.json fresh.json"

let load path =
  let src =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  match J.parse src with
  | Ok v -> v
  | Error e -> die "%s: %s" path e

(* --- accessors over the report shape -------------------------------- *)

let str_field name v = Option.bind (J.member name v) J.to_str
let num_field name v = Option.bind (J.member name v) J.to_num

let targets v : (string * J.v) list =
  match Option.bind (J.member "targets" v) J.to_arr with
  | None -> []
  | Some ts ->
    List.filter_map
      (fun t -> Option.map (fun n -> (n, t)) (str_field "name" t))
      ts

(* all fields of an object sub-record, as name -> float *)
let table field v : (string * float) list =
  match J.member field v with
  | Some (J.Obj kvs) ->
    List.filter_map (fun (k, x) -> Option.map (fun n -> (k, n)) (J.to_num x))
      kvs
  | _ -> []

(* --- the gates ------------------------------------------------------ *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let pct_over fresh base = 100.0 *. ((fresh /. base) -. 1.0)

let check_ratio ~target ~what ~base ~fresh =
  if base > 0.0 && pct_over fresh base > max_regress then
    fail "%s: %s regressed %.1f%% (%.4g -> %.4g, threshold %.0f%%)" target
      what (pct_over fresh base) base fresh max_regress

let has_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  ls >= lf && String.sub s (ls - lf) lf = suf

let check_target name base fresh =
  (match (num_field "baseline_cycles" base, num_field "baseline_cycles" fresh)
   with
  | Some b, Some f ->
    check_ratio ~target:name ~what:"baseline_cycles" ~base:b ~fresh:f
  | _ -> ());
  List.iter
    (fun (k, b) ->
      match List.assoc_opt k (table "overheads" fresh) with
      | Some f -> check_ratio ~target:name ~what:("overhead " ^ k) ~base:b ~fresh:f
      | None -> fail "%s: overhead %s missing from fresh report" name k)
    (table "overheads" base);
  (* emitted-check counters must never increase: the static hardening
     quality gate *)
  let fresh_counters = table "counters" fresh in
  List.iter
    (fun (k, b) ->
      let gated =
        k = "checks_emitted" || k = "hoist.checks_emitted"
        || (String.length k >= 5 && String.sub k 0 5 = "emit.")
        || (String.length k >= 8 && String.sub k 0 8 = "backend.")
        || has_suffix k "minor_words_per_instr"
      in
      if gated then
        match List.assoc_opt k fresh_counters with
        | Some f when f > b ->
          fail "%s: counter %s increased (%.0f -> %.0f)" name k b f
        | Some _ -> ()
        | None -> fail "%s: counter %s missing from fresh report" name k
      (* hoisted checks, hit rates, reuse rates and found bugs are
         gains: losing some means the hoister stopped proving loops it
         used to prove, a cache tier stopped hitting (or reusing)
         where it used to, or a fuzz campaign stopped finding a seeded
         bug it used to find *)
      else if
        k = "hoisted_checks"
        || has_suffix k "hit_permille"
        || has_suffix k "reused_permille"
        || has_suffix k "unique_bugs"
      then
        match List.assoc_opt k fresh_counters with
        | Some f when f < b ->
          fail "%s: counter %s decreased (%.0f -> %.0f)" name k b f
        | Some _ -> ()
        | None -> fail "%s: counter %s missing from fresh report" name k)
    (table "counters" base)

let () =
  let base = load baseline_path and fresh = load fresh_path in
  let base_t = targets base and fresh_t = targets fresh in
  if base_t = [] then die "%s: no targets" baseline_path;
  List.iter
    (fun (name, bt) ->
      match List.assoc_opt name fresh_t with
      | Some ft -> check_target name bt ft
      | None -> fail "%s: missing from fresh report" name)
    base_t;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name base_t) then
        Printf.printf "note: new target %s (not in baseline)\n" name)
    fresh_t;
  if !failures = 0 then
    Printf.printf "bench-gate OK: %d targets within %.0f%% of %s\n"
      (List.length base_t) max_regress baseline_path
  else begin
    Printf.printf
      "bench-gate: %d failure(s) vs %s\n\
       (intentional change?  re-baseline with: make bench-baseline)\n"
      !failures baseline_path;
    exit 1
  end
