(** table1: the Table-1 sweep.  One unit is one benchmark's row —
    profile on the train input, baseline, 7 hardened configurations
    and Memcheck on the ref input — on a fresh in-memory engine, so
    nothing carries over between rows or rounds.  The inputs are the
    paper's fixed train/ref sets, so the seed is not used. *)

open Perf_harness
open Harness
module Rw = Redfat.Rewrite
module Rt = Redfat_rt.Runtime

type row = {
  bench : Workloads.Spec.bench;
  bin : Binfmt.Relf.t;
  train : int list;
  refs : int list;
}

type state = row array

let log_opts = { Rt.default_options with mode = Rt.Log }
let nosize = { log_opts with size_harden = false }

(* the hardened columns of Table 1, as in bench/main.ml *)
let configs =
  [
    ("unopt", Rw.unoptimized, log_opts);
    ("elim", Rw.with_elim, log_opts);
    ("batch", Rw.with_batch, log_opts);
    ("merge", Rw.optimized, log_opts);
    ("nosize", Rw.optimized, nosize);
    ("hoist", Rw.with_hoist, nosize);
    ( "noreads",
      { Rw.optimized with instrument_reads = false },
      { nosize with check_reads = false } );
  ]

let setup c ~seed:_ =
  let e = engine () in
  let rows =
    List.map
      (fun (b : Workloads.Spec.bench) ->
        let bin =
          call c ~layer:"minic" "compile" (fun () ->
              Pl.compile e.eng (Workloads.Spec.program b))
        in
        { bench = b; bin; train = Workloads.Spec.train_inputs b;
          refs = Workloads.Spec.ref_inputs b })
      Workloads.Spec.all
    |> Array.of_list
  in
  finish c e;
  rows

let verdict_ok what (v : Redfat.verdict) =
  match v with
  | Redfat.Finished _ -> Ok ()
  | v -> Error (what ^ " " ^ Redfat.verdict_to_string v)

let same_outputs ~base (r : Redfat.run_result) =
  if r.outputs = base.Redfat.outputs then Ok ()
  else Error "outputs differ from the baseline run"

(* one row; returns the +merge overhead and the VM-running calls'
   latencies (us) *)
let row c r =
  let e = engine () in
  let name = r.bench.name in
  let lat = ref [] in
  let vm_call ~layer span f =
    let v, dt = Clock.time (fun () -> call c ~layer span f) in
    lat := (dt *. 1e6) :: !lat;
    v
  in
  (* a run in the vm layer: its steps, model cycles and allocation *)
  let vm_run f =
    let w0 = Gc.minor_words () in
    let r = vm_call ~layer:"vm" "run" f in
    add c "vm.minor_words" (Gc.minor_words () -. w0);
    r
  in
  let tally_run (r : Redfat.run_result) =
    add c "vm.runs" 1.0;
    add c "vm.steps" (float_of_int r.steps);
    add c "vm.cycles" (float_of_int r.cycles)
  in
  let allow =
    vm_call ~layer:"profile" "profile" (fun () ->
        Pl.profile e.eng ~test_suite:[ r.train ] r.bin)
  in
  let base, bv =
    vm_run (fun () -> Pl.run_baseline e.eng ~inputs:r.refs r.bin)
  in
  tally_run base;
  check c ~op:(name ^ "/baseline") (verdict_ok "baseline" bv);
  let merge = ref nan in
  List.iter
    (fun (col, opts, rt) ->
      let hard =
        call c ~layer:"engine" "harden" (fun () ->
            Pl.harden e.eng ~opts:{ opts with Rw.allowlist = Some allow } r.bin)
      in
      add c "rewriter.instrs" (float_of_int hard.Rw.stats.instrs_total);
      add c "rewriter.checks_emitted" (float_of_int hard.stats.checks_emitted);
      add c "rewriter.trap_patches" (float_of_int hard.stats.trap_patches);
      add c "rewriter.code_bytes"
        (float_of_int (hard.stats.text_bytes + hard.stats.tramp_bytes));
      let hr =
        vm_run (fun () ->
            Pl.run_hardened e.eng ~options:rt ~inputs:r.refs hard.Rw.binary)
      in
      tally_run hr.run;
      if col = "merge" then
        merge := float_of_int hr.run.cycles /. float_of_int base.cycles;
      check c ~op:(name ^ "/" ^ col)
        (Result.bind (verdict_ok col hr.verdict) (fun () ->
             same_outputs ~base hr.run)))
    configs;
  let mc, mv, _ =
    vm_call ~layer:"baselines" "memcheck" (fun () ->
        Pl.run_memcheck e.eng ~inputs:r.refs r.bin)
  in
  (* Memcheck's allocator quarantines freed blocks, so a program that
     reads heap memory before writing it (perlbench's hash table) may
     print other values under it: a clean exit and the same number of
     outputs is all it owes the baseline *)
  check c ~op:(name ^ "/memcheck")
    (Result.bind (verdict_ok "memcheck" mv) (fun () ->
         if List.length mc.outputs = List.length base.outputs then Ok ()
         else Error "output count differs from the baseline run"));
  finish c e;
  (!merge, !lat)

let measure c (rows : state) ~seconds =
  let n = Array.length rows in
  let merge = Array.make n nan in
  let times, lat, reps =
    round_robin ~n ~seconds ~min_rounds:1 (fun i ->
        (* plan from scratch, as a fresh process would *)
        Rewriter.Blueprint.reset ();
        call c ~layer:"bench" "timed" (fun () ->
            let m, lat = row c rows.(i) in
            merge.(i) <- m;
            lat))
  in
  {
    wall_s = pass_time times;
    lat_us = lat;
    min_ops = n * 10;
    reps;
    facts = [ ("table1.overhead_gm", geomean (Array.to_list merge), "x") ];
  }
