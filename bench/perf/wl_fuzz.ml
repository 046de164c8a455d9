(** fuzz: 15 exec campaigns — every planted memory bug except the
    hang, under each check backend — with the campaign seed taken from
    [--seed].  One unit is one campaign on a fresh engine.  The hang
    case is left out: its long runs would duplicate table1. *)

open Perf_harness
open Harness
module Rw = Redfat.Rewrite
module Campaign = Fuzz.Campaign

type campaign = {
  target : string;
  case : Workloads.Fuzzbugs.case;
  hard : Binfmt.Relf.t;
}

type state = { campaigns : campaign array; config : Campaign.config }

let budget = 1000

let setup c ~seed =
  let e = engine () in
  let campaigns =
    List.concat_map
      (fun backend ->
        List.filter_map
          (fun (case : Workloads.Fuzzbugs.case) ->
            if case.id = "hang" then None
            else
              let bin =
                call c ~layer:"minic" "compile" (fun () ->
                    Pl.compile e.eng case.program)
              in
              let hard =
                call c ~layer:"engine" "harden" (fun () ->
                    Pl.harden e.eng ~opts:{ Rw.optimized with Rw.backend } bin)
              in
              Some
                { target =
                    Printf.sprintf "bug:%s/%s" case.id
                      (Backend.Check_backend.name backend);
                  case; hard = hard.Rw.binary })
          Workloads.Fuzzbugs.all)
      Backend.Check_backend.all
  in
  finish c e;
  { campaigns = Array.of_list campaigns;
    config = { Campaign.default_config with budget; seed } }

let median_us n f =
  Stats.median
    (List.init n (fun _ -> snd (Clock.time f) *. 1e6))

let measure c st ~seconds =
  let n = Array.length st.campaigns in
  let bugs = Array.make n 0 in
  let times, _, reps =
    round_robin ~n ~seconds ~min_rounds:3 (fun i ->
        let cp = st.campaigns.(i) in
        let e = engine () in
        let r, dt =
          Clock.time (fun () ->
              call c ~layer:"bench" "timed" (fun () ->
                  call c ~layer:"fuzz" "campaign" (fun () ->
                      Campaign.run_exec e.eng ~config:st.config
                        ~target:cp.target cp.hard)))
        in
        finish c e;
        add c "fuzz.campaign_s" dt;
        add c "fuzz.execs" (float_of_int (r.r_execs + r.r_min_execs));
        add c "fuzz.crashes" (float_of_int r.r_crashes);
        add c "fuzz.cov_edges" (float_of_int r.r_cov_edges);
        add c "fuzz.unique_bugs" (float_of_int (List.length r.r_bugs));
        bugs.(i) <- List.length r.r_bugs;
        (* the planted bug is a memory error, so it must show as a
           backend detection (a detect. code): a hang (run.timeout) on
           a huge mutated loop bound does not count *)
        let detected (b : Campaign.bug) =
          String.starts_with ~prefix:"detect." b.b_code
        in
        check c ~op:cp.target
          (if List.exists detected r.r_bugs then Ok ()
           else Error (Printf.sprintf "planted bug not found in %d execs" r.r_execs));
        [])
  in
  (* per-exec cost, replayed outside the timed campaigns: one
     execution of each case's benign and attack input, and the VM
     set-up alone *)
  if traced c then
    Array.iter
      (fun cp ->
        List.iter
          (fun inputs ->
            sample c "fuzz.exec_us"
              (median_us 20 (fun () -> ignore (Campaign.execute cp.hard inputs))))
          [ cp.case.benign; cp.case.attack ];
        sample c "vm.prepare_us"
          (median_us 20 (fun () -> ignore (Redfat.prepare cp.hard))))
      st.campaigns;
  {
    wall_s = pass_time times;
    lat_us =
      Array.to_list times |> List.concat_map (List.map (fun t -> t *. 1e6));
    min_ops = n * 3;
    reps;
    facts =
      [ ("fuzz.unique_bugs", float_of_int (Array.fold_left ( + ) 0 bugs), "count") ];
  }
