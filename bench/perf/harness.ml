(** What every workload shares: the optional span recorder, the
    per-layer tally of traced runs, operation accounting, and fresh
    single-domain engines. *)

open Perf_harness
module Pl = Engine.Pipeline

type ctx = {
  workload : string;
  spans : Spans.t option;  (** [Some] in the traced phase only *)
  tally : (string, float) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
}

let ctx ~workload ~traced =
  {
    workload;
    spans = (if traced then Some (Spans.create ()) else None);
    tally = Hashtbl.create 64;
    samples = Hashtbl.create 8;
    attempted = 0;
    failed = 0;
  }

let traced c = Option.is_some c.spans

(** Run [f] in a span of [layer] when tracing; a plain call otherwise. *)
let call c ~layer ?rid name f =
  match c.spans with
  | None -> f ()
  | Some s -> Spans.record s ~layer ?rid name f

(** Add to a per-layer value (traced phase only). *)
let add c key v =
  if traced c then
    Hashtbl.replace c.tally key
      (v +. Option.value (Hashtbl.find_opt c.tally key) ~default:0.0)

let get c key = Option.value (Hashtbl.find_opt c.tally key) ~default:0.0

(** Record one sample of a per-layer distribution (traced phase only);
    reported as its median. *)
let sample c key v =
  if traced c then
    Hashtbl.replace c.samples key
      (v :: Option.value (Hashtbl.find_opt c.samples key) ~default:[])

let median_of c key =
  match Hashtbl.find_opt c.samples key with
  | Some l -> Stats.median l
  | None -> 0.0

(** Count one checked operation; [Error reason] is a failure, printed
    as [FAILED <workload> <op> <reason>]. *)
let check c ~op = function
  | Ok () -> c.attempted <- c.attempted + 1
  | Error reason ->
    c.attempted <- c.attempted + 1;
    c.failed <- c.failed + 1;
    Printf.printf "FAILED %s %s %s\n%!" c.workload op reason

(** A fresh single-domain engine, and the {!Clock} time its span
    collector was created at. *)
type engine = { eng : Pl.t; origin : float }

let engine ?cache_dir () =
  let origin = Clock.now () in
  { eng = Pl.create ~jobs:1 ~cache:true ?cache_dir (); origin }

let layer_of ~cat ~name =
  match (cat, name) with
  | "stage", "compile" -> "minic"
  | "stage", "profile" -> "profile"
  | "stage", "verify" -> "dataflow"
  | "stage", "run" -> "vm"
  | "rewrite", _ -> "rewriter"
  | "serve", _ -> "serve"
  | _ -> "engine"

(** The engine counters the per-layer metrics read, for deltas. *)
let counters_of (e : engine) =
  let cs = Pl.cache_stats e.eng in
  let o = Pl.obs e.eng in
  [
    ("engine.cache.hit_mem", cs.Engine.Cache.hits_mem);
    ("engine.cache.hit_disk", cs.hits_disk);
    ("engine.cache.miss", cs.misses);
    ("engine.cache.store", cs.stores);
    ("blueprint.hit", Obs.counter o "blueprint.hit");
    ("blueprint.miss", Obs.counter o "blueprint.miss");
    ("harden.fn.hit", Obs.counter o "harden.fn.hit");
    ("harden.fn.miss", Obs.counter o "harden.fn.miss");
  ]

(** Fold an engine's spans recorded since [since] (a {!Clock} time)
    and its counter deltas since [from] into the traced phase. *)
let finish c ?(since = neg_infinity) ?(from = []) (e : engine) =
  match c.spans with
  | None -> ()
  | Some s ->
    Spans.fold s ~origin:e.origin ~since ~layer_of (Obs.spans (Pl.obs e.eng));
    List.iter
      (fun (k, v) ->
        add c k
          (float_of_int (v - Option.value (List.assoc_opt k from) ~default:0)))
      (counters_of e)

(** What a measured phase hands back to [perf.ml]. *)
type result = {
  wall_s : float;
      (** the workload's timed unit, median over reps, in reference
          seconds ({!Probe}) *)
  lat_us : float list;  (** per-operation latencies, reference us *)
  min_ops : int;
      (** operations every run measures at least; [op_tail_us] is the
          {!Stats.tail_pct} of this count, so the percentile does not
          move with machine speed *)
  reps : float;  (** reps measured, to normalise per-layer totals *)
  facts : (string * float * string) list;
      (** deterministic results, printed as [name value unit] *)
}

(* --- peak memory -------------------------------------------------------- *)

(* VmHWM in MiB (the OCaml heap's peak where /proc is missing) *)
let vm_hwm_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" In_channel.input_lines
      |> List.find_map (fun l ->
             Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

let rss_mark = ref None

(** Record the peak resident set once the workload's first full pass
    is done.  Later passes repeat the same work, so stopping here keeps
    the figure independent of how many passes [--seconds] allowed. *)
let mark_rss () = if !rss_mark = None then rss_mark := Some (vm_hwm_mb ())

let peak_rss_mb () = match !rss_mark with Some mb -> mb | None -> vm_hwm_mb ()

(** Run [unit i] for [i = 0, 1, ...] round-robin over [n] units until
    [seconds] have passed and every unit has run at least [min_rounds]
    times.  [unit i] returns the latencies (us) of the operations it
    timed.  Returns each unit's durations and all the latencies, in
    reference seconds ({!Probe.bracket}), and the rounds run. *)
let round_robin ~n ~seconds ~min_rounds unit =
  let times = Array.make n [] and ops = ref [] in
  let t0 = Clock.now () in
  let k = ref 0 in
  while !k < n * min_rounds || Clock.now () -. t0 < seconds do
    let i = !k mod n in
    let (lat, dt), speed = Probe.bracket (fun () -> Clock.time (fun () -> unit i)) in
    times.(i) <- (dt /. speed) :: times.(i);
    ops := List.rev_append (List.map (fun l -> l /. speed) lat) !ops;
    incr k;
    if !k = n then mark_rss ()
  done;
  (times, !ops, float_of_int !k /. float_of_int n)

(** Σ over units of each unit's median duration: the time one pass
    over every unit takes. *)
let pass_time times =
  Array.fold_left (fun acc ts -> acc +. Stats.median ts) 0.0 times

(** Scratch directories live inside the working tree, under
    [scratch_root]; callers remove them with {!rm_rf}. *)
let scratch_root = "_perf"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_dir name =
  if not (Sys.file_exists scratch_root) then Sys.mkdir scratch_root 0o755;
  let d =
    Filename.concat scratch_root (Printf.sprintf "%s-%d" name (Unix.getpid ()))
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  d

let dir_bytes dir =
  try
    Array.fold_left
      (fun acc f ->
        try acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
        with Unix.Unix_error _ -> acc)
      0 (Sys.readdir dir)
  with Sys_error _ -> 0

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float (List.length xs))

(** Deterministic 48-bit LCG (java.util.Random constants), as in
    [bench serve]. *)
let lcg seed =
  let state = ref ((seed lxor 0x5DEECE66D) land 0xFFFF_FFFF_FFFF) in
  fun () ->
    state := ((!state * 0x5DEECE66D) + 0xB) land 0xFFFF_FFFF_FFFF;
    !state lsr 16
