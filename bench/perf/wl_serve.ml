(** serve: a Zipf(1.0) request stream over the 29 [spec:] targets and
    the three [examples/*.mc] sources, 80/15/5 harden/verify/trace,
    through [Serve.Server.handle] on one engine.  The LCG that orders
    the requests is seeded by [--seed].

    - set-up: a fresh daemon and two harden touches per target, so the
      hot tier (admit on second touch) is full before timing;
    - closed loop: [closed_chunks] chunks of [closed_chunk]
      back-to-back requests, each chunk the same mix; [wall_s] is the
      median chunk's wall time (saturation throughput = closed_chunk /
      wall_s);
    - open loop: a fixed [rate] for [open_share] of [--seconds] (at
      least [min_open] requests, in segments of [open_segment]),
      latency from each request's due time — the [op_p50_us] /
      [op_tail_us] samples.

    Timings are in reference seconds ({!Perf_harness.Probe}): each
    closed-loop chunk and each open-loop segment is bracketed by probe
    samples.

    Every response must be ok, and every harden response must report
    the checks_emitted of that target's first (computed) response:
    cached == fresh.  Checked after the timed loops. *)

open Perf_harness
open Harness
module Server = Serve.Server

let closed_chunk = 1000
let closed_chunks = 7
let rate = 500.0
let min_open = 2000
let open_segment = 500

(* the open loop's share of [--seconds] *)
let open_share = 0.75

type state = {
  e : engine;
  srv : Server.t;
  fleet : string array;
  cold_checks : (string, int) Hashtbl.t;
  rand : unit -> int;
  mutable next_id : int;
}

let request ~id ~op ~tgt =
  Printf.sprintf "{\"id\": %S, \"op\": %S, \"target\": %S}" id op tgt

let field name line =
  match Obs.Json.parse line with
  | Error _ -> None
  | Ok j -> Obs.Json.member name j

let int_field name line =
  Option.map int_of_float (Option.bind (field name line) Obs.Json.to_num)

let setup c ~seed =
  let e = engine () in
  let srv = Server.create e.eng in
  let fleet =
    Array.of_list
      (List.map
         (fun (b : Workloads.Spec.bench) -> "spec:" ^ b.name)
         Workloads.Spec.all
      @ [ "examples/victim.mc"; "examples/interp.mc";
          "examples/fortran_idiom.mc" ])
  in
  let cold_checks = Hashtbl.create 32 in
  Array.iteri
    (fun i tgt ->
      for touch = 1 to 2 do
        let id = Printf.sprintf "fill%d.%d" i touch in
        let resp, ok =
          call c ~layer:"serve" ~rid:id "handle" (fun () ->
              Server.handle srv (request ~id ~op:"harden" ~tgt))
        in
        check c ~op:id (if ok then Ok () else Error resp);
        match int_field "checks_emitted" resp with
        | Some n when touch = 1 -> Hashtbl.replace cold_checks tgt n
        | _ -> ()
      done)
    fleet;
  finish c e;
  { e; srv; fleet; cold_checks; rand = lcg seed; next_id = 0 }

(* The stream's mix: (target, op) cells weighted Zipf(1.0) over the
   fleet (rank i has weight 1/(i+1), fleet order = rank order) times
   80/15/5 harden/verify/trace, rounded by largest remainder so [n]
   requests always carry the same work; the seed only orders them.
   Sampling the mix instead would let a seed that draws a few more
   trace runs of a heavy target move every timing. *)
let mix fleet n =
  let zipf = Array.mapi (fun i _ -> 1.0 /. float_of_int (i + 1)) fleet in
  let total = Array.fold_left ( +. ) 0.0 zipf in
  let cells =
    Array.to_list fleet
    |> List.mapi (fun i tgt ->
           List.map
             (fun (op, w) -> ((tgt, op), float_of_int n *. w *. zipf.(i) /. total))
             [ ("harden", 0.80); ("verify", 0.15); ("trace", 0.05) ])
    |> List.concat
  in
  let floors = List.map (fun (cell, x) -> (cell, int_of_float x, x -. Float.of_int (int_of_float x))) cells in
  let short = n - List.fold_left (fun a (_, k, _) -> a + k) 0 floors in
  let by_remainder =
    List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) floors
  in
  List.concat
    (List.mapi
       (fun rank ((tgt, op), k, _) ->
         List.init (if rank < short then k + 1 else k) (fun _ -> (tgt, op)))
       by_remainder)
  |> Array.of_list

let requests st n =
  let reqs = mix st.fleet n in
  for i = n - 1 downto 1 do
    let j = st.rand () mod (i + 1) in
    let x = reqs.(i) in
    reqs.(i) <- reqs.(j);
    reqs.(j) <- x
  done;
  Array.map
    (fun (tgt, op) ->
      let id = Printf.sprintf "r%d" st.next_id in
      st.next_id <- st.next_id + 1;
      (id, op, tgt, request ~id ~op ~tgt))
    reqs

let handle c st (id, _, _, line) =
  call c ~layer:"serve" ~rid:id "handle" (fun () -> Server.handle st.srv line)

let check_responses c st reqs resps =
  Array.iteri
    (fun i (id, op, tgt, _) ->
      let resp, ok = resps.(i) in
      check c ~op:(op ^ "/" ^ id)
        (if not ok then Error resp
         else if op <> "harden" then Ok ()
         else
           match (int_field "checks_emitted" resp, Hashtbl.find_opt st.cold_checks tgt) with
           | Some n, Some cold when n = cold -> Ok ()
           | got, cold ->
             let show = function Some n -> string_of_int n | None -> "-" in
             Error
               (Printf.sprintf "%s checks_emitted %s, cold %s" tgt (show got)
                  (show cold))))
    reqs

let measure c st ~seconds =
  let since = Clock.now () in
  let from = counters_of st.e in
  let lru0 = Serve.Lru.stats (Server.lru st.srv) in
  let lru_hits0 = lru0.hits and lru_miss0 = lru0.misses in
  let chunk_s =
    List.init closed_chunks (fun _ ->
        let reqs = requests st closed_chunk in
        let resps = Array.make closed_chunk ("", false) in
        let ((), dt), speed =
          Probe.bracket @@ fun () ->
          Clock.time (fun () ->
              call c ~layer:"bench" "timed" (fun () ->
                  Array.iteri (fun i r -> resps.(i) <- handle c st r) reqs))
        in
        check_responses c st reqs resps;
        dt /. speed)
  in
  let wall = Stats.median chunk_s in
  mark_rss ();
  (* the open loop runs in segments of [open_segment] requests, each
     its own schedule and the same mix, with a probe sample between
     them *)
  let segments =
    max (min_open / open_segment)
      (int_of_float (open_share *. seconds *. rate) / open_segment)
  in
  let lat = ref [] and all = ref [] in
  for _ = 1 to segments do
    let reqs = requests st open_segment in
    let resps = Array.make open_segment ("", false) in
    let samples, speed =
      Probe.bracket @@ fun () ->
      call c ~layer:"bench" "open_loop" (fun () ->
          Openloop.run ~now:Clock.now ~rate ~n:open_segment
            (fun i -> resps.(i) <- handle c st reqs.(i)))
    in
    check_responses c st reqs resps;
    Array.iteri
      (fun i s ->
        lat := (Openloop.latency s *. 1e6 /. speed) :: !lat;
        all := (reqs.(i), s) :: !all)
      samples
  done;
  finish c ~since ~from st.e;
  if traced c then begin
    let samples = List.map snd !all in
    List.iter
      (fun ((_, op, _, _), (s : Openloop.sample)) ->
        sample c ("serve." ^ op ^ "_us") ((s.finish -. s.start) *. 1e6))
      !all;
    let st_ = Serve.Lru.stats (Server.lru st.srv) in
    let hits = st_.hits - lru_hits0 and misses = st_.misses - lru_miss0 in
    add c "serve.lru.hit_permille"
      (1000.0 *. float_of_int hits /. float_of_int (max 1 (hits + misses)));
    add c "serve.lru.bytes" (float_of_int st_.bytes);
    add c "serve.lru.admitted" (float_of_int st_.admitted);
    add c "serve.sat_rps" (float_of_int closed_chunk /. wall);
    add c "serve.queue_us_p99"
      (Stats.percentile
         (List.map (fun s -> Openloop.queue_delay s *. 1e6) samples)
         99.0);
    add c "serve.gen_late_us_max"
      (List.fold_left (fun m s -> Float.max m (Openloop.gen_late s *. 1e6)) 0.0 samples)
  end;
  {
    wall_s = wall;
    lat_us = !lat;
    min_ops = min_open;
    reps = 1.0;
    facts =
      [ ("serve.sat_rps", float_of_int closed_chunk /. wall, "1/s") ];
  }
