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

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* a JSON string literal *)
let str s = "\"" ^ escape s ^ "\""

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.6g" x

let to_json ?cache ?(cache_enabled = true) ?(extra = []) t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  List.iter (fun (k, v) -> add "  %s: %s,\n" (str k) (str v)) extra;
  add "  \"jobs\": %d,\n" t.njobs;
  add "  \"wall_seconds\": %s,\n" (json_float (wall t));
  (match cache with
  | Some (c : Cache.stats) ->
    add
      "  \"cache\": { \"enabled\": %b, \"hits\": %d, \"hits_mem\": %d, \
       \"hits_disk\": %d, \"misses\": %d, \"stores\": %d },\n"
      cache_enabled c.hits c.hits_mem c.hits_disk c.misses c.stores
  | None -> ());
  add "  \"stages\": {\n";
  let stages = stage_summary t in
  List.iteri
    (fun i (name, calls, secs) ->
      add "    %s: { \"calls\": %d, \"seconds\": %s }%s\n" (str name)
        calls (json_float secs)
        (if i = List.length stages - 1 then "" else ","))
    stages;
  add "  },\n";
  (* merged obs counters and histograms: the per-check-kind and cache
     facts the bench-regression gate diffs *)
  add "  \"counters\": {";
  let cs = Obs.counters t.obs in
  List.iteri
    (fun i (name, v) ->
      add "%s %s: %d" (if i = 0 then "" else ",") (str name) v)
    cs;
  add " },\n";
  (* omitted entirely when no histogrammed path ran: experiments like
     table1 used to emit an empty [{}] object, which readers must
     still accept for old reports *)
  let hs = Obs.histograms t.obs in
  if hs <> [] then begin
    add "  \"histograms\": {\n";
    List.iteri
      (fun i (name, (h : Obs.hist)) ->
        add
          "    %s: { \"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \
           \"buckets\": [%s] }%s\n"
          (str name) h.Obs.h_count h.Obs.h_sum
          (if h.Obs.h_count = 0 then 0 else h.Obs.h_min)
          (if h.Obs.h_count = 0 then 0 else h.Obs.h_max)
          (String.concat ", "
             (List.map
                (fun (lo, c) -> Printf.sprintf "[%d, %d]" lo c)
                h.Obs.h_buckets))
          (if i = List.length hs - 1 then "" else ","))
      hs;
    add "  },\n"
  end;
  add "  \"targets\": [\n";
  let tgs = targets t in
  List.iteri
    (fun i tg ->
      add "    { \"name\": %s," (str tg.tg_name);
      (* omitted for synthetic targets (a serve fleet, a rebuild
         night) that have no baseline execution: a literal 0 reads as
         "infinitely fast baseline" to ratio-computing consumers *)
      (match tg.tg_cycles with
      | Some c -> add " \"baseline_cycles\": %d," c
      | None -> ());
      add " \"wall_seconds\": %s" (json_float tg.tg_wall);
      if tg.tg_overheads <> [] then begin
        add ", \"overheads\": { ";
        add "%s"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s: %s" (str k) (json_float v))
                tg.tg_overheads));
        add " }"
      end;
      if tg.tg_counters <> [] then begin
        add ", \"counters\": { ";
        add "%s"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s: %d" (str k) v)
                tg.tg_counters));
        add " }"
      end;
      add " }%s\n" (if i = List.length tgs - 1 then "" else ","))
    tgs;
  add "  ],\n";
  (* typed per-target fault records (always present, [] when clean) *)
  add "  \"faults\": [\n";
  let fs = faults t in
  List.iteri
    (fun i f ->
      add "    %s%s\n" (Fault.to_json f)
        (if i = List.length fs - 1 then "" else ","))
    fs;
  add "  ]\n";
  add "}\n";
  Buffer.contents b
