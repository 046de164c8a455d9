(** Monotonic time in seconds, at nanosecond resolution. *)

external now_ns : unit -> int = "perf_clock_now_ns" [@@noalloc]

let now () = float_of_int (now_ns ()) *. 1e-9

(** Run [f], returning its result and its duration in seconds. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)
