(** The benchmark's metric table.  BENCHMARK.json at the repository
    root repeats it; the [test_perf] drift gate fails when the two
    differ in a workload, a name, a unit, a direction or a bound. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let workloads =
  [
    ( "table1",
      "Table-1 sweep: long VM runs of 29 SPEC stand-ins under 7 hardened \
       configs and Memcheck; the VM loop dominates" );
    ( "fuzz",
      "15 exec campaigns over the planted bugs x 3 backends: thousands of \
       short runs, so per-run VM setup and scheduling dominate" );
    ( "rewrite",
      "harden+verify the Chrome-scale binary and 29 kernels under 6 option \
       sets cold, then 3 one-function nights over a warm disk cache; no VM" );
    ( "serve",
      "Zipf request stream through Server.handle, 80/15/5 \
       harden/verify/trace: hot-tier hits set p50, trace runs set the tail" );
  ]

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.2;
    e2e "op_p50_us" "us" Lower 0.2;
    e2e "op_tail_us" "us" Lower 0.25;
    e2e "setup_s" "s" Lower 0.25;
    e2e "peak_rss_mb" "MiB" Lower 0.1;
  ]

let self_layers =
  [ "bench"; "minic"; "rewriter"; "engine"; "dataflow"; "vm"; "baselines";
    "profile"; "fuzz"; "serve" ]

let per_layer =
  [
    layer "trace.overhead_permille" "permille" Lower;
    layer "trace.covered_permille" "permille" Higher;
    layer "op.samples" "count" Higher;
  ]
  @ List.map (fun l -> layer ("self." ^ l ^ "_s") "s" Lower) self_layers
  @ [
      layer "minic.compile_s" "s" Lower;
      layer "rewriter.harden_s" "s" Lower;
      layer "rewriter.kinstr_per_s" "kinstr/s" Higher;
      layer "rewriter.recover_s" "s" Lower;
      layer "rewriter.collect_s" "s" Lower;
      layer "rewriter.plan_s" "s" Lower;
      layer "rewriter.elim_s" "s" Lower;
      layer "rewriter.emit_s" "s" Lower;
      layer "rewriter.blueprint_hit_permille" "permille" Higher;
      layer "rewriter.partition_ms" "ms" Lower;
      layer "rewriter.checks_emitted" "count" Lower;
      layer "rewriter.trap_patches" "count" Lower;
      layer "rewriter.code_bytes" "bytes" Lower;
      layer "dataflow.verify_s" "s" Lower;
      layer "dataflow.operands_per_s" "1/s" Higher;
      layer "dataflow.unaccounted" "count" Lower;
      layer "engine.cache.hit_mem" "count" Higher;
      layer "engine.cache.hit_disk" "count" Higher;
      layer "engine.cache.miss" "count" Lower;
      layer "engine.cache.store" "count" Lower;
      layer "engine.harden_hit_us_p50" "us" Lower;
      layer "engine.fn_reuse_permille" "permille" Higher;
      layer "engine.cache_disk_mb" "MiB" Lower;
      layer "vm.run_s" "s" Lower;
      layer "vm.runs" "count" Lower;
      layer "vm.msteps_per_s" "Msteps/s" Higher;
      layer "vm.minor_words_per_step" "words" Lower;
      layer "vm.mcycles" "Mcycles" Lower;
      layer "vm.prepare_us" "us" Lower;
      layer "baselines.memcheck_s" "s" Lower;
      layer "profile.profile_s" "s" Lower;
      layer "table1.overhead_gm" "x" Lower;
      layer "fuzz.campaign_s" "s" Lower;
      layer "fuzz.execs" "count" Higher;
      layer "fuzz.execs_per_s" "1/s" Higher;
      layer "fuzz.crashes" "count" Higher;
      layer "fuzz.cov_edges" "count" Higher;
      layer "fuzz.unique_bugs" "count" Higher;
      layer "fuzz.exec_us_p50" "us" Lower;
      layer "fuzz.sched_permille" "permille" Lower;
      layer "serve.sat_rps" "1/s" Higher;
      layer "serve.harden_us_p50" "us" Lower;
      layer "serve.verify_us_p50" "us" Lower;
      layer "serve.trace_us_p50" "us" Lower;
      layer "serve.queue_us_p99" "us" Lower;
      layer "serve.gen_late_us_max" "us" Lower;
      layer "serve.lru.hit_permille" "permille" Higher;
      layer "serve.lru.bytes" "bytes" Lower;
      layer "serve.lru.admitted" "count" Lower;
      layer "gc.minor_mwords" "Mwords" Lower;
      layer "gc.major_collections" "count" Lower;
    ]

let find name =
  List.find (fun m -> m.name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"
