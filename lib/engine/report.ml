type target = {
  tg_name : string;
  tg_cycles : int option;
  tg_overheads : (string * float) list;
  tg_counters : (string * int) list;
  tg_wall : float;
}

(* Hot-path recording (spans, counters, histograms) goes through the
   per-domain [Obs] buffers — no shared lock, no contended cache line.
   Only the cold per-target list keeps a mutex (one push per measured
   workload). *)
type t = {
  obs : Obs.t;
  lock : Mutex.t;
  mutable tgs : target list;
  mutable flts : Fault.t list;
  mutable njobs : int;
  t0 : float;
}

let now () = Unix.gettimeofday ()

let create () =
  {
    obs = Obs.create ();
    lock = Mutex.create ();
    tgs = [];
    flts = [];
    njobs = 1;
    t0 = now ();
  }

let obs t = t.obs
let set_jobs t n = t.njobs <- n
let jobs t = t.njobs

let record t name dt =
  Obs.add_span t.obs ~cat:"stage" name ~start:(now () -. dt) ~dur:dt

let timed t name f = Obs.span t.obs ~cat:"stage" name f

let add_target t ~name ?cycles ?(overheads = []) ?(counters = []) ~wall
    () =
  Mutex.lock t.lock;
  t.tgs <-
    { tg_name = name; tg_cycles = cycles; tg_overheads = overheads;
      tg_counters = counters; tg_wall = wall }
    :: t.tgs;
  Mutex.unlock t.lock

let targets t =
  Mutex.lock t.lock;
  let tgs = t.tgs in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare a.tg_name b.tg_name) tgs

let add_fault t (f : Fault.t) =
  Mutex.lock t.lock;
  t.flts <- f :: t.flts;
  Mutex.unlock t.lock

let faults t =
  Mutex.lock t.lock;
  let fs = t.flts in
  Mutex.unlock t.lock;
  List.sort
    (fun (a : Fault.t) b -> compare (a.target, Fault.code a) (b.target, Fault.code b))
    fs

let stage_summary t = Obs.span_summary ~cat:"stage" t.obs

let wall t = now () -. t.t0

let pp fmt t =
  Format.fprintf fmt "@[<v>stage        calls   seconds@,";
  List.iter
    (fun (name, calls, secs) ->
      Format.fprintf fmt "%-12s %5d %9.3f@," name calls secs)
    (stage_summary t);
  Format.fprintf fmt "total wall %16.3f@]" (wall t)

(* --- JSON ----------------------------------------------------------- *)

let to_json ?cache ?(cache_enabled = true) ?(extra = []) t =
  let open Obs.Json in
  let ints = List.map (fun (k, v) -> (k, Int v)) in
  (* a member that some reports omit *)
  let opt k = function Some v -> [ (k, v) ] | None -> [] in
  let nonempty = function [] -> None | kvs -> Some (Obj kvs) in
  let cache =
    Option.map
      (fun (c : Cache.stats) ->
        Obj
          (("enabled", Bool cache_enabled)
          :: ints
               [
                 ("hits", c.hits); ("hits_mem", c.hits_mem);
                 ("hits_disk", c.hits_disk); ("misses", c.misses);
                 ("stores", c.stores);
               ]))
      cache
  in
  let stage (name, calls, secs) =
    (name, Obj [ ("calls", Int calls); ("seconds", Num secs) ])
  in
  let hist (name, (h : Obs.hist)) =
    let seen v = if h.h_count = 0 then 0 else v in
    let bucket (lo, c) = Arr [ Int lo; Int c ] in
    ( name,
      Obj
        (ints
           [
             ("count", h.h_count); ("sum", h.h_sum); ("min", seen h.h_min);
             ("max", seen h.h_max);
           ]
        @ [ ("buckets", Arr (List.map bucket h.h_buckets)) ]) )
  in
  let target tg =
    Obj
      ((("name", Str tg.tg_name)
       (* omitted for synthetic targets (a serve fleet, a rebuild
          night) that have no baseline execution: a literal 0 reads as
          "infinitely fast baseline" to ratio-computing consumers *)
       :: opt "baseline_cycles" (Option.map (fun c -> Int c) tg.tg_cycles))
      @ [ ("wall_seconds", Num tg.tg_wall) ]
      @ opt "overheads"
          (nonempty (List.map (fun (k, v) -> (k, Num v)) tg.tg_overheads))
      @ opt "counters" (nonempty (ints tg.tg_counters)))
  in
  to_string ~lines:2
    (Obj
       (List.map (fun (k, v) -> (k, Str v)) extra
       @ [ ("jobs", Int t.njobs); ("wall_seconds", Num (wall t)) ]
       @ opt "cache" cache
       @ [
           ("stages", Obj (List.map stage (stage_summary t)));
           (* merged obs counters and histograms: the per-check-kind
              and cache facts the bench-regression gate diffs *)
           ("counters", Obj (ints (Obs.counters t.obs)));
         ]
       (* omitted entirely when no histogrammed path ran: experiments
          like table1 used to emit an empty [{}] object, which readers
          must still accept for old reports *)
       @ opt "histograms"
           (nonempty (List.map hist (Obs.histograms t.obs)))
       @ [
           ("targets", Arr (List.map target (targets t)));
           (* typed per-target fault records (always present, [] when
              clean) *)
           ("faults", Arr (List.map Fault.to_json (faults t)));
         ]))
  ^ "\n"
