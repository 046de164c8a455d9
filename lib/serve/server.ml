module Pl = Engine.Pipeline
module Fault = Engine.Fault
module Rw = Redfat.Rewrite
module J = Obs.Json

type t = {
  eng : Pl.t;
  lru : Lru.t;
  traces : Lru.t;
  stop : bool Atomic.t;
}

let obs t = Pl.obs t.eng

let create ?(mem_bytes = 64 * 1024 * 1024) eng =
  let o = Pl.obs eng in
  {
    eng;
    lru =
      Lru.create ~cap_bytes:mem_bytes
        ~notify:(fun ev -> Obs.add o ("serve.cache." ^ ev))
        ();
    traces = Lru.create ~cap_bytes:(mem_bytes / 64) ();
    stop = Atomic.make false;
  }

let engine t = t.eng
let lru t = t.lru
let stop_requested t = Atomic.get t.stop
let request_stop t = Atomic.set t.stop true

(* --- the served artifact --------------------------------------------- *)

(* everything a harden or verify response needs, computed once per
   (target, backend, hoist) by the Figure-5 workflow and held in the
   hot tier as a marshal blob: the rewrite's counters, the baseline
   run's cycles and the soundness audit's operand total.  The hardened
   binary rides along serialized, so a trace miss replays the hardened
   run without recompiling or rewriting (and without firing the
   compile/harden/cache injection points a rebuild would). *)
type artifact = {
  a_target : string;
  a_backend : string;
  a_hoist : bool;
  a_binary : string;  (* Binfmt.Relf.serialize of the hardened binary *)
  a_inputs : int list;
  a_base_cycles : int;
  a_checks_emitted : int;
  a_trampolines : int;
  a_code_bytes : int;
  a_hoisted : int;
  a_accounted : int;  (* memory operands the audit accounted for *)
}

(* the Log-mode run of an artifact's hardened binary on its inputs: a
   pure function of the artifact, computed on a trace miss and held in
   its own hot tier (same admission policy) under the artifact's key *)
type trace = { verdict : string; hardened_cycles : int; detected : int }

let artifact_key t (rq : Proto.request) =
  Engine.Cache.key ~kind:"serve"
    [
      rq.rq_target;
      Backend.Check_backend.name rq.rq_backend;
      (if rq.rq_hoist then "hoist" else "nohoist");
      (* injected runs must never share artifacts with clean runs *)
      Engine.Faultinject.to_string (Pl.inject t.eng);
    ]

(* compile, then the Figure-5 workflow; each primitive goes through the
   engine's own two-tier artifact cache, so a hot-tier miss still reuses
   any compile/profile/harden artifacts the disk tier holds *)
let compute_artifact t (rq : Proto.request) : artifact =
  let prog, train, inputs = Targets.find_program rq.rq_target in
  let { Pl.hard; audit; base } =
    Pl.workflow t.eng
      ~opts:
        { Rw.optimized with backend = rq.rq_backend; hoist = rq.rq_hoist }
      ~train ~inputs (Pl.compile t.eng prog)
  in
  {
    a_target = rq.rq_target;
    a_backend = Backend.Check_backend.name rq.rq_backend;
    a_hoist = rq.rq_hoist;
    a_binary = Binfmt.Relf.serialize hard.Rw.binary;
    a_inputs = inputs;
    a_base_cycles = base.Redfat.cycles;
    a_checks_emitted = hard.Rw.stats.Rw.checks_emitted;
    a_trampolines = hard.Rw.stats.Rw.trampolines;
    a_code_bytes = hard.Rw.stats.Rw.text_bytes + hard.Rw.stats.Rw.tramp_bytes;
    a_hoisted = hard.Rw.stats.Rw.hoisted_checks;
    a_accounted = audit.Redfat.Verify.total;
  }

let artifact t (rq : Proto.request) : artifact * Lru.outcome =
  let blob, outcome =
    Lru.get t.lru ~key:(artifact_key t rq) (fun () ->
        Marshal.to_string (compute_artifact t rq) [])
  in
  ((Marshal.from_string blob 0 : artifact), outcome)

let trace t (rq : Proto.request) (a : artifact) : trace =
  let blob, _ =
    Lru.get t.traces ~key:(artifact_key t rq) (fun () ->
        let hrun =
          Engine.Report.timed (Pl.report t.eng) "run" @@ fun () ->
          Redfat.run ~inputs:a.a_inputs
            (Binfmt.Relf.parse a.a_binary)
            (Hardened { Redfat.Runtime.default_options with mode = Log })
        in
        Marshal.to_string
          {
            verdict = Redfat.verdict_to_string hrun.Redfat.verdict;
            hardened_cycles = hrun.Redfat.run.Redfat.cycles;
            detected = List.length (Redfat.Runtime.errors hrun.Redfat.state);
          }
          [])
  in
  Marshal.from_string blob 0

(* --- per-op responses ------------------------------------------------ *)

let artifact_fields (a : artifact) (outcome : Lru.outcome) =
  [
    ("target", J.Str a.a_target);
    ("backend", J.Str a.a_backend);
    ("hoist", J.Bool a.a_hoist);
    ("cache", J.Str (Lru.outcome_name outcome));
    ("checks_emitted", J.Int a.a_checks_emitted);
    ("trampolines", J.Int a.a_trampolines);
    ("code_bytes", J.Int a.a_code_bytes);
    ("hoisted_checks", J.Int a.a_hoisted);
    ("baseline_cycles", J.Int a.a_base_cycles);
  ]

let run_op t (rq : Proto.request) : (string * J.v) list =
  match rq.rq_op with
  | Proto.Ping -> [ ("pong", J.Bool true) ]
  | Proto.Shutdown ->
    request_stop t;
    [ ("stopping", J.Bool true) ]
  | Proto.Stats ->
    let ls = Lru.stats t.lru in
    let cs = Pl.cache_stats t.eng in
    [
      ("serve.cache.hits", J.Int ls.Lru.hits);
      ("serve.cache.misses", J.Int ls.Lru.misses);
      ("serve.cache.coalesced", J.Int ls.Lru.coalesced);
      ("serve.cache.admitted", J.Int ls.Lru.admitted);
      ("serve.cache.evictions", J.Int ls.Lru.evictions);
      ("serve.cache.bytes", J.Int ls.Lru.bytes);
      ("serve.cache.cap_bytes", J.Int (Lru.cap_bytes t.lru));
      ("cache.hit.mem", J.Int cs.Engine.Cache.hits_mem);
      ("cache.hit.disk", J.Int cs.Engine.Cache.hits_disk);
      ("cache.miss", J.Int cs.Engine.Cache.misses);
    ]
  | Proto.Harden ->
    let a, outcome = artifact t rq in
    artifact_fields a outcome
  (* verify and trace answer from per-artifact values, but each still
     runs its injection point once per request, hit or miss, so an
     [--inject] clause fails the requests a fresh audit or run would *)
  | Proto.Verify ->
    let a, outcome = artifact t rq in
    Pl.hook t.eng "verify";
    [
      ("target", J.Str a.a_target);
      ("backend", J.Str a.a_backend);
      ("cache", J.Str (Lru.outcome_name outcome));
      ("verified", J.Bool true);
      ("accounted", J.Int a.a_accounted);
    ]
  | Proto.Trace ->
    let a, outcome = artifact t rq in
    Pl.hook t.eng "run";
    let tr = trace t rq a in
    [
      ("target", J.Str a.a_target);
      ("backend", J.Str a.a_backend);
      ("cache", J.Str (Lru.outcome_name outcome));
      ("verdict", J.Str tr.verdict);
      ("baseline_cycles", J.Int a.a_base_cycles);
      ("hardened_cycles", J.Int tr.hardened_cycles);
      ( "overhead",
        J.Num
          (float_of_int tr.hardened_cycles
          /. float_of_int (max 1 a.a_base_cycles)) );
      ("detected", J.Int tr.detected);
    ]

(* --- the request boundary -------------------------------------------- *)

(* one request line in, one response line out.  The engine's protect
   boundary isolates the request: a poisoned target (bad name, parse
   fault, injected fault, failed audit, crashing run) answers ok:false
   with the typed fault attached — the daemon, and even the connection,
   keep serving. *)
let handle t line : string * bool =
  let o = obs t in
  match Proto.parse_request line with
  | Error e ->
    Obs.add o "serve.req.badline";
    (Proto.error_response ~id:"-" ~detail:e, false)
  | Ok rq ->
    let opn = Proto.op_name rq.rq_op in
    Obs.add o ("serve.req." ^ opn);
    let t0 = Unix.gettimeofday () in
    let label = if rq.rq_target = "" then "serve:" ^ opn else rq.rq_target in
    let ok, fields =
      Obs.span o ~cat:"serve" ("serve." ^ opn) (fun () ->
          match Pl.protect t.eng ~target:label (fun () -> run_op t rq) with
          | Ok fields -> (true, fields)
          | Error f ->
            Obs.add o "serve.fault";
            (false, [ ("fault", Fault.to_json f) ]))
    in
    let resp = Proto.response ~id:rq.rq_id ~op:rq.rq_op ~ok fields in
    Obs.observe o "serve.latency_us"
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
    (resp, ok)

(* --- transports ------------------------------------------------------ *)

(* script mode: a request file in, responses to [emit], number of
   failed requests out — the deterministic-test transport *)
let run_script t ~lines ~emit =
  let failed = ref 0 in
  List.iter
    (fun line ->
      if String.trim line <> "" && not (stop_requested t) then begin
        let resp, ok = handle t line in
        if not ok then incr failed;
        emit resp
      end)
    lines;
  !failed

let serve_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       if not (stop_requested t) then
         match In_channel.input_line ic with
         | None -> ()
         | Some line ->
           if String.trim line <> "" then begin
             let resp, _ok = handle t line in
             Out_channel.output_string oc (resp ^ "\n");
             Out_channel.flush oc
           end;
           loop ()
     in
     loop ()
   with _ -> ());
  (try Out_channel.flush oc with Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ())

(* accept loop: select with a short timeout so the stop flag (SIGTERM
   handler, or a Shutdown request on any connection) is polled between
   accepts; one domain per connection, joined before returning so a
   clean shutdown never drops an in-flight response *)
let listen t ~socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let srv = Unix.socket PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Sys.remove socket with Sys_error _ -> ())
  @@ fun () ->
  Unix.bind srv (ADDR_UNIX socket);
  Unix.listen srv 16;
  let conns = ref [] in
  while not (stop_requested t) do
    match Unix.select [ srv ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
      match Unix.accept srv with
      | fd, _ ->
        Obs.add (obs t) "serve.conn";
        conns := Domain.spawn (fun () -> serve_conn t fd) :: !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter Domain.join !conns

(* client mode: stream a request file to a running daemon and print
   each response; returns the number of not-ok responses.  Retries the
   connect briefly so `daemon & client` races in scripts just work. *)
let send ~socket ~lines ~emit =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  let rec connect attempt =
    match Unix.connect fd (ADDR_UNIX socket) with
    | () -> ()
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _)
      when attempt < 100 ->
      Unix.sleepf 0.1;
      connect (attempt + 1)
  in
  connect 0;
  let oc = Unix.out_channel_of_descr fd in
  List.iter
    (fun line ->
      if String.trim line <> "" then Out_channel.output_string oc (line ^ "\n"))
    lines;
  Out_channel.flush oc;
  Unix.shutdown fd SHUTDOWN_SEND;
  let ic = Unix.in_channel_of_descr fd in
  let failed = ref 0 in
  let rec read () =
    match In_channel.input_line ic with
    | None -> ()
    | Some resp ->
      if not (Proto.response_ok resp) then incr failed;
      emit resp;
      read ()
  in
  read ();
  (try Unix.close fd with Unix.Unix_error _ -> ());
  !failed
