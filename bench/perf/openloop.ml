(** A fixed-rate open-loop generator driving a single server.

    Request [i] is due at [t0 + i / rate] whatever happened before it.
    The generator and the server share one thread, as independent
    users share one daemon: when request [i - 1] is still running at
    [i]'s due time, [i] waits for it (queueing), otherwise the
    generator waits for the due time.  Latency runs from the due time,
    so a stall counts against every request it delays. *)

type sample = {
  due : float;
  start : float;
  finish : float;
  queued : bool;  (** due while the previous request was still running *)
}

(* The generator spins until each due time rather than sleeping: on a
   shared host an idle vCPU loses its caches (and sometimes the CPU) to
   other tenants, which moved the median request's latency by a third
   from run to run when the generator slept between requests. *)
let run ~now ~rate ~n send =
  let t0 = now () in
  Array.init n (fun i ->
      let due = t0 +. (float_of_int i /. rate) in
      let queued = now () > due in
      if not queued then while now () < due do () done;
      let start = now () in
      send i;
      { due; start; finish = now (); queued })

let latency s = s.finish -. s.due

(** Time spent waiting behind earlier requests. *)
let queue_delay s = if s.queued then s.start -. s.due else 0.0

(** How late an idle generator sent the request. *)
let gen_late s = if s.queued then 0.0 else s.start -. s.due
