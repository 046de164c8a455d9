(** The machine-speed probe.

    The benchmark's reference host (a 2-vCPU Xeon VM) runs the same
    work 40%, at times 80%, slower for seconds to minutes while other
    tenants are busy, which no amount of repetition inside one run
    averages away.  So the end-to-end timings are reported in
    {e reference seconds}: each timed unit (a table1 row, a campaign,
    one binary's share of a rewrite phase, a serve chunk or open-loop
    segment, a set-up) is divided by the speed factor around it, the
    slowdown this probe sees against its median on the reference host.

    The probe is a small bytecode interpreter, the shape of the VM's
    dispatch loop; of the probes tried its slowdowns tracked the
    workloads' best (a scan past L2 tracked the fuzz workload a little
    better, but its array changed the collector's pacing).  It runs
    between timed units, never inside one, uses no code of the
    repository and does not allocate, so no change to the libraries or
    to the GC settings can move it: a faster VM lowers the normalised
    times exactly as it lowers the measured ones. *)

(* a dispatch-heavy bytecode loop, the shape of the VM's interpreter *)
type op =
  | Add of int * int * int
  | Mul of int * int * int
  | Ld of int * int
  | St of int * int
  | Dec of int
  | Jnz of int * int

let prog =
  [| Ld (0, 1); Add (2, 2, 0); Mul (3, 2, 1); St (3, 2); Add (1, 1, 3);
     Dec 4; Jnz (4, 0) |]

let cells = Array.make 4096 1
let r = Array.make 8 0

let interp () =
  Array.fill r 0 8 0;
  r.(4) <- 100_000;
  let pc = ref 0 in
  while !pc < Array.length prog do
    match prog.(!pc) with
    | Add (d, a, b) ->
      r.(d) <- (r.(a) + r.(b)) land 0xffff;
      incr pc
    | Mul (d, a, b) ->
      r.(d) <- (r.(a) * r.(b)) land 0xffff;
      incr pc
    | Ld (d, a) ->
      r.(d) <- cells.(r.(a) land 4095);
      incr pc
    | St (s, a) ->
      cells.(r.(a) land 4095) <- r.(s);
      incr pc
    | Dec d ->
      r.(d) <- r.(d) - 1;
      incr pc
    | Jnz (c, t) -> if r.(c) <> 0 then pc := t else incr pc
  done;
  r.(2)

(* the probe's median on the reference host in a quiet period *)
let interp_ref = 0.00176

let timed f = snd (Clock.time (fun () -> ignore (Sys.opaque_identity (f ()))))

let factors = ref []
let last = ref (neg_infinity, 1.0)

(* one probe sample: its time over the reference time *)
let sample () =
  let f = timed interp /. interp_ref in
  factors := f :: !factors;
  last := (Clock.now (), f);
  f

(** [f ()] and the machine's speed factor around it: the mean of a
    sample just before (the previous one, when it is under half a
    second old) and one just after.  Dividing a time measured inside
    [f] by the factor gives reference seconds. *)
let bracket f =
  let before =
    match !last with
    | t, b when Clock.now () -. t < 0.5 -> b
    | _ -> sample ()
  in
  let v = f () in
  (v, (before +. sample ()) /. 2.0)

let samples () = List.length !factors
let median () = Stats.median !factors
