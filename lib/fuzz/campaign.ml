(** The orchestrated fuzzing campaign: coverage-guided input
    generation scheduled on the {!Engine.Pipeline} domain pool, with
    the hardening checks as the crash oracle ({!Oracle}).

    One campaign = one target binary (or parser) x one backend x one
    budget.  The loop is AFL in miniature:

    + run the seed inputs;
    + inputs that reach new coverage join the {!Corpus} and enqueue
      their bounded {!Mutate.deterministic_stage};
    + once deterministic candidates drain, parents are drawn from the
      corpus lottery and mutated by {!Mutate.havoc};
    + every abnormal exit is triaged by the oracle and deduplicated
      into a bug keyed by [(oracle code, check site, backend)];
    + surviving bugs get their first crashing input minimized.

    Determinism: mutation generation and result processing are
    sequential in the submitting domain, and batches are composed
    {e before} they are fanned out over [Pipeline.map] (whose result
    order is deterministic), so the report is byte-identical for any
    [--jobs] — the property test/test_fuzz.ml locks in.  Edge coverage
    is the classic AFL hash ({!E9afl.edge}) over consecutive {e check
    sites}, computed by wrapping the VM's [on_check] accounting hook
    around the installed backend check, and over consecutive
    {!E9afl} probe ids, so the same loop is the edge-guided fuzzer on
    a block-instrumented binary. *)

module Pl = Engine.Pipeline
module Runtime = Redfat_rt.Runtime

type config = {
  budget : int;     (** campaign executions (seeds included) *)
  seed : int;       (** LCG seed: same seed, same report *)
  max_steps : int;  (** per-execution VM step budget (hang oracle) *)
}

let default_config = { budget = 2000; seed = 1; max_steps = 200_000 }

type bug = {
  b_code : string;          (** oracle code, e.g. [detect.oob-upper] *)
  b_site : int;             (** dedup site *)
  b_backend : string;
  b_class : string;         (** CWE-annotated class ({!Oracle.bug_class}) *)
  mutable b_count : int;    (** crashes collapsed into this bug *)
  b_first_exec : int;       (** execution index of first discovery (1-based) *)
  b_input : string;         (** first crashing input, rendered *)
  mutable b_min_input : string;  (** minimized, still crashing *)
  b_detail : string;
}

type report = {
  r_target : string;
  r_mode : string;          (** ["exec"], ["profile"] or ["parse"] *)
  r_backend : string;
  r_seed : int;
  r_budget : int;
  r_execs : int;
  r_crashes : int;
  r_cov_edges : int;
  r_cov_sites : int;
  r_corpus : int;
  r_min_execs : int;        (** extra executions spent minimizing *)
  r_bugs : bug list;        (** discovery order *)
}

type exec_result = {
  x_edges : int list;              (** distinct AFL edge hashes, sorted *)
  x_sites : int list;              (** distinct check sites, sorted *)
  x_crash : Oracle.crash option;
  x_cycles : int;
}

let sorted_keys h = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) h [])

(* --- one execution of a hardened binary ----------------------------- *)

(** Run [inputs] through the image of a hardened binary under
    [runtime] (its backend is the one the binary records), collecting
    edge/site coverage and the oracle's verdict.  Under
    {!Redfat.Profiling}, as in [Engine.Pipeline.profile], a failed
    check is recorded and the run continues.  Pure per call (a fresh
    instance of the frozen image, a fresh runtime), so executions fan
    out over domains safely. *)
let execute_image ~max_steps runtime (im : Redfat.image) (inputs : int list)
    : exec_result =
  let cpu, _, vmrt = Redfat.load ~inputs ~max_steps im runtime in
  let edges = Hashtbl.create 64 and sites = Hashtbl.create 64 in
  let prev = ref 0 in
  let visit id =
    Hashtbl.replace edges (E9afl.edge !prev id) ();
    prev := id
  in
  (match cpu.on_check with
  | None -> ()
  | Some inner ->
    cpu.on_check <-
      Some
        (fun c (ck : X64.Isa.check) ->
          let s = ck.X64.Isa.ck_site in
          Hashtbl.replace sites s ();
          visit s;
          inner c ck));
  (* hardened binaries carry no probes; an {!E9afl} build is all probes *)
  cpu.on_probe <-
    Some
      (fun _ id ->
        visit id;
        3 (* what the VM charges a probe with no hook: cycles unchanged *));
  let result = Redfat.exec cpu vmrt ~entry:(Redfat.image_binary im).entry in
  {
    x_edges = sorted_keys edges;
    x_sites = sorted_keys sites;
    x_crash = Oracle.of_verdict ~rip:cpu.rip result;
    x_cycles = cpu.cycles;
  }

let exec_runtime = Redfat.Hardened Runtime.default_options

(* bench/perf's [fuzz.exec_us] probe is the last caller; the benchmark
   change of ROADMAP item 1 times executions of one image instead *)
let execute ?(max_steps = default_config.max_steps) (binary : Binfmt.Relf.t)
    (inputs : int list) : exec_result =
  execute_image ~max_steps exec_runtime (Redfat.image binary) inputs

(* --- the generic campaign loop -------------------------------------- *)

(** Batch size for one pool fan-out.  A constant (never derived from
    [--jobs]): batch composition is part of the deterministic input
    stream, worker count only changes who executes it. *)
let batch_size = 16

let render_inputs (l : int list) = String.concat "," (List.map string_of_int l)

let render_bytes (s : string) =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      if c >= ' ' && c <= '~' && c <> '\\' && c <> '"' then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "\\x%02x" (Char.code c)))
    s;
  let s = Buffer.contents b in
  if String.length s <= 64 then s else String.sub s 0 61 ^ "..."

(* The loop shared by exec and parser campaigns, parametric in the
   input type.  [run_one] executes one input; [det]/[havoc] are the
   mutation stages; [render] prints an input into the report. *)
let campaign_loop (eng : Pl.t) (config : config) ~target ~mode ~backend
    ~(seeds : 'a list) ~(run_one : 'a -> exec_result)
    ~(det : 'a -> 'a list) ~(havoc : Mutate.Rng.t -> 'a -> 'a)
    ~(empty : 'a) ~(render : 'a -> string)
    ~(minimize : ('a -> bool) -> 'a -> 'a) : report * 'a list =
  let obs = Pl.obs eng in
  let rng = Mutate.Rng.create config.seed in
  let corpus = Corpus.create () in
  let pending = Queue.create () in
  let bugs = ref [] (* newest first *) and raw = Hashtbl.create 16 in
  let execs = ref 0 and crashes = ref 0 in
  let record (c : Oracle.crash) input =
    incr crashes;
    match
      List.find_opt
        (fun b -> b.b_code = c.c_code && b.b_site = c.c_site)
        !bugs
    with
    | Some b -> b.b_count <- b.b_count + 1
    | None ->
      Hashtbl.replace raw (c.c_code, c.c_site) input;
      bugs :=
        {
          b_code = c.c_code;
          b_site = c.c_site;
          b_backend = backend;
          b_class = Oracle.bug_class c.c_code;
          b_count = 1;
          b_first_exec = !execs;
          b_input = render input;
          b_min_input = render input;
          b_detail = c.c_detail;
        }
        :: !bugs
  in
  let process (input, res) =
    incr execs;
    Obs.observe obs "fuzz.exec_cycles" res.x_cycles;
    if Corpus.add corpus ~input ~edges:res.x_edges ~sites:res.x_sites then
      List.iter (fun m -> Queue.add m pending) (det input);
    match res.x_crash with None -> () | Some c -> record c input
  in
  let run_batch batch =
    List.iter process (Pl.map eng (fun i -> (i, run_one i)) batch)
  in
  (* seeds first (truncated to the budget), then the mutation loop *)
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  run_batch (take config.budget seeds);
  while !execs < config.budget do
    let want = min batch_size (config.budget - !execs) in
    let batch =
      List.init want (fun _ ->
          if not (Queue.is_empty pending) then Queue.pop pending
          else
            match Corpus.schedule corpus rng with
            | Some parent -> havoc rng parent
            | None -> havoc rng empty)
    in
    run_batch batch
  done;
  (* minimization: sequential, oldest bug first, bounded per bug *)
  let min_execs = ref 0 in
  List.iter
    (fun b ->
      match Hashtbl.find_opt raw (b.b_code, b.b_site) with
      | None -> ()
      | Some input ->
        let still cand =
          incr min_execs;
          match (run_one cand).x_crash with
          | Some c -> c.c_code = b.b_code && c.c_site = b.b_site
          | None -> false
        in
        b.b_min_input <- render (minimize still input))
    (List.rev !bugs);
  let r_bugs = List.rev !bugs in
  Obs.add obs ~n:!execs "fuzz.execs";
  Obs.add obs ~n:!crashes "fuzz.crashes";
  Obs.add obs ~n:(Corpus.n_edges corpus) "fuzz.cov_edges";
  Obs.add obs ~n:(Corpus.n_sites corpus) "fuzz.cov_sites";
  Obs.add obs ~n:(List.length r_bugs) "fuzz.unique_bugs";
  Obs.add obs ~n:(Corpus.size corpus) "fuzz.corpus_entries";
  Obs.add obs ~n:!min_execs "fuzz.min_execs";
  ( {
      r_target = target;
      r_mode = mode;
      r_backend = backend;
      r_seed = config.seed;
      r_budget = config.budget;
      r_execs = !execs;
      r_crashes = !crashes;
      r_cov_edges = Corpus.n_edges corpus;
      r_cov_sites = Corpus.n_sites corpus;
      r_corpus = Corpus.size corpus;
      r_min_execs = !min_execs;
      r_bugs;
    },
    Corpus.entries corpus )

(* --- minimizers ------------------------------------------------------ *)

let minimize_budget = 256

(** Greedy ddmin-lite for int vectors: drop elements to a fixpoint,
    then shrink surviving values toward 0 — always re-checking that
    the (code, site) pair still reproduces. *)
let minimize_inputs (still : int list -> bool) (input : int list) : int list =
  let tries = ref 0 in
  let still cand = !tries < minimize_budget && (incr tries; still cand) in
  let cur = ref input in
  let changed = ref true in
  while !changed do
    changed := false;
    let n = List.length !cur in
    for i = n - 1 downto 0 do
      let cand = List.filteri (fun j _ -> j <> i) !cur in
      if List.length !cur > List.length cand && still cand then begin
        cur := cand;
        changed := true
      end
    done
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iteri
      (fun i v ->
        let v' = v / 2 in
        if v' <> v then begin
          let cand = List.mapi (fun j x -> if j = i then v' else x) !cur in
          if still cand then begin
            cur := cand;
            changed := true
          end
        end)
      !cur
  done;
  !cur

(** Byte-string minimizer: cut chunks while the typed rejection
    reproduces.  Trailing chunks go first (keep the first half, three
    quarters, all but the last byte) until none can go; then leading
    ones (drop the first half, quarter, byte), as ddmin's complement
    step removes a chunk wherever it sits; and again while either
    shrinks the input. *)
let minimize_bytes (still : string -> bool) (input : string) : string =
  let tries = ref 0 in
  let still cand = !tries < minimize_budget && (incr tries; still cand) in
  let cur = ref input in
  let changed = ref true in
  let cuts l n =
    List.sort_uniq compare (List.filter (fun k -> k >= 0 && k < n) l)
  in
  (* one pass of [keep k s] over the cut points of the current length;
     [!cur] may have shrunk since the cut list was computed *)
  let pass points keep =
    let n = String.length !cur in
    List.fold_left
      (fun shrunk k ->
        match keep k !cur with
        | Some cand when still cand ->
          cur := cand;
          true
        | _ -> shrunk)
      false (cuts (points n) n)
  in
  let prefix k s = if k < String.length s then Some (String.sub s 0 k) else None in
  let suffix k s =
    let m = String.length s in
    if k > 0 && k < m then Some (String.sub s k (m - k)) else None
  in
  while !changed do
    while pass (fun n -> [ n / 2; (3 * n) / 4; n - 1 ]) prefix do
      ()
    done;
    changed := pass (fun n -> [ n / 2; n / 4; 1 ]) suffix
  done;
  !cur

(* --- exec campaigns -------------------------------------------------- *)

(* one image per campaign: every execution, on any worker, starts
   from it *)
let input_campaign eng config ~target ~mode ~runtime ~seeds binary =
  let im = Redfat.image binary in
  campaign_loop eng config ~target ~mode
    ~backend:(Backend.Check_backend.name (Redfat.backend_of_binary binary))
    ~seeds ~run_one:(execute_image ~max_steps:config.max_steps runtime im)
    ~det:Mutate.deterministic_stage ~havoc:Mutate.havoc ~empty:[]
    ~render:render_inputs ~minimize:minimize_inputs

(** Fuzz a hardened binary: inputs are VM input scripts, the oracle is
    the backend recorded in the binary itself.  On a binary carrying
    {!E9afl} probes, coverage is the probe-edge map. *)
let run_exec (eng : Pl.t) ?(config = default_config) ~target
    ?(seeds = [ []; [ 0 ] ]) (hard : Binfmt.Relf.t) : report =
  fst
    (input_campaign eng config ~target ~mode:"exec" ~runtime:exec_runtime
       ~seeds hard)

(** Grow a profiling test suite (paper §5's coverage booster): fuzz the
    profiling build of [binary] under a Log-mode profiling runtime, so
    coverage is the check sites reached.  Returns the report and the
    kept corpus, oldest first, as a [test_suite] for
    [Engine.Pipeline.profile]. *)
let run_profile (eng : Pl.t) ?(config = default_config) ~target
    ?(seeds = [ []; [ 0 ] ]) (binary : Binfmt.Relf.t) :
    report * int list list =
  let prof = Pl.harden eng ~opts:Redfat.Rewrite.profiling_build binary in
  input_campaign eng config ~target ~mode:"profile"
    ~runtime:Redfat.Profiling ~seeds prof.binary

(* --- parser campaigns ------------------------------------------------ *)

type parser_target = Relf_parser | Minic_parser | X64_decoder

let parser_name = function
  | Relf_parser -> "relf"
  | Minic_parser -> "minic"
  | X64_decoder -> "x64"

(* where the x64 target loads its bytes: the code base of a RELF text *)
let x64_base = Lowfat.Layout.code_base

(* The x64 target sweeps the bytes as one code blob.  A clean sweep's
   coverage is the set of opcodes it decoded; a failed sweep's is only
   its outcome (the failing opcode, and whether the bytes ran out), as
   the sweep returns nothing before the first bad instruction.  So the
   corpus keeps an input per new instruction kind among clean inputs
   and per new way of failing. *)
let sweep_once (bytes : string) : exec_result =
  let ops = Hashtbl.create 16 in
  let crash =
    match X64.Disasm.sweep_stream ~addr:x64_base bytes with
    | s ->
      Array.iter
        (fun a ->
          Hashtbl.replace ops
            (Hashtbl.hash ("op", bytes.[a - x64_base]))
            ())
        s.addrs;
      None
    | exception (X64.Decode.Decode_error { addr; byte } as exn) ->
      let off = addr - x64_base in
      let op = if off >= 0 && off < String.length bytes then bytes.[off] else ' ' in
      Hashtbl.replace ops (Hashtbl.hash ("outcome", op, byte < 0)) ();
      Some
        { Oracle.c_code = Engine.Fault.(code (of_exn exn)); c_site = 0;
          c_detail =
            (if byte < 0 then Printf.sprintf "truncated instruction at %#x" addr
             else Printf.sprintf "undecodable byte %#x at %#x" byte addr) }
    | exception e ->
      Some
        { Oracle.c_code = "run.fault"; c_site = 0;
          c_detail = "parser crash: " ^ Printexc.to_string e }
  in
  { x_edges = sorted_keys ops; x_sites = []; x_crash = crash; x_cycles = 0 }

(* One parse attempt as an exec_result: for the two document parsers
   "coverage" is the outcome signature (which typed rejection, or a
   success shape), so the corpus keeps one representative input per
   distinct outcome. *)
let parse_once (which : parser_target) (bytes : string) : exec_result =
  let outcome (crash : Oracle.crash option) =
    let signature =
      match crash with
      | Some c -> Hashtbl.hash ("outcome", c.c_code, c.c_site)
      | None -> Hashtbl.hash ("ok", String.length bytes / 8)
    in
    { x_edges = [ signature ]; x_sites = []; x_crash = crash; x_cycles = 0 }
  in
  match which with
  | X64_decoder -> sweep_once bytes
  | Relf_parser ->
    outcome
      (match Binfmt.Relf.load bytes with
      | (_ : Binfmt.Relf.t) -> None
      | exception (Binfmt.Reader.Error e as exn) ->
        Some
          { Oracle.c_code = Engine.Fault.(code (of_exn exn)); c_site = 0;
            c_detail = Binfmt.Reader.message e }
      | exception e ->
        (* anything but a reader error is a parser bug, not a rejection *)
        Some
          { Oracle.c_code = "run.fault"; c_site = 0;
            c_detail = "parser crash: " ^ Printexc.to_string e })
  | Minic_parser ->
    outcome
      (match Minic.Parser.parse_program bytes with
      | (_ : Minic.Ast.program) -> None
      | exception Minic.Parser.Parse_error (msg, pos) ->
        Some
          { Oracle.c_code = "parse.source"; c_site = pos.line;
            c_detail = Printf.sprintf "%d:%d: parse error: %s" pos.line pos.col msg }
      | exception Minic.Lexer.Lex_error (msg, pos) ->
        Some
          { Oracle.c_code = "parse.source"; c_site = pos.line;
            c_detail = Printf.sprintf "%d:%d: lex error: %s" pos.line pos.col msg }
      | exception e ->
        Some
          { Oracle.c_code = "run.fault"; c_site = 0;
            c_detail = "parser crash: " ^ Printexc.to_string e })

(** Fuzz a parser: inputs are raw bytes, the oracle is the typed fault
    contract — every malformed input must be rejected with a [parse.*]
    fault; any other exception is a parser bug ([run.fault]). *)
let run_parse (eng : Pl.t) ?(config = default_config)
    ~(which : parser_target) ~(seeds : string list) () : report =
  fst
    (campaign_loop eng config ~target:(parser_name which) ~mode:"parse"
       ~backend:"none" ~seeds
       ~run_one:(parse_once which)
       ~det:Mutate.deterministic_stage_bytes ~havoc:Mutate.havoc_bytes
       ~empty:"" ~render:render_bytes ~minimize:minimize_bytes)

(* --- report rendering ------------------------------------------------ *)

(** The per-campaign counters, in {!Engine.Report.add_target} shape. *)
let counters (r : report) =
  [
    ("fuzz.execs", r.r_execs);
    ("fuzz.crashes", r.r_crashes);
    ("fuzz.cov_edges", r.r_cov_edges);
    ("fuzz.cov_sites", r.r_cov_sites);
    ("fuzz.corpus_entries", r.r_corpus);
    ("fuzz.min_execs", r.r_min_execs);
    ("fuzz.unique_bugs", List.length r.r_bugs);
  ]

let bug_json (b : bug) =
  Obs.Json.(
    Obj
      [
        ("code", Str b.b_code); ("site", Int b.b_site);
        ("backend", Str b.b_backend); ("class", Str b.b_class);
        ("count", Int b.b_count); ("first_exec", Int b.b_first_exec);
        ("input", Str b.b_input); ("min_input", Str b.b_min_input);
        ("detail", Str b.b_detail);
      ])

let counters_json kvs =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) kvs)

let report_json (r : report) =
  Obs.Json.(
    Obj
      [
        ("target", Str r.r_target); ("mode", Str r.r_mode);
        ("backend", Str r.r_backend); ("seed", Int r.r_seed);
        ("budget", Int r.r_budget); ("counters", counters_json (counters r));
        ("bugs", Arr (List.map bug_json r.r_bugs));
      ])

let to_json r = Obs.Json.to_string ~lines:2 (report_json r)

(** Several campaigns as one [--out] document (the `redfat fuzz`
    schema documented in the MANUAL). *)
let reports_json (rs : report list) =
  let total f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  Obs.Json.(
    to_string ~lines:2
      (Obj
         [
           ("experiment", Str "fuzz");
           ( "counters",
             counters_json
               [
                 ("fuzz.execs", total (fun r -> r.r_execs));
                 ("fuzz.crashes", total (fun r -> r.r_crashes));
                 ("fuzz.unique_bugs", total (fun r -> List.length r.r_bugs));
               ] );
           ("campaigns", Arr (List.map report_json rs));
         ]))
  ^ "\n"

(** One human line per bug (CLI and bench matrix output). *)
let bug_summary (b : bug) =
  Printf.sprintf "%s at site %#x [%s] x%d: %s (min input: %s)" b.b_code
    b.b_site b.b_backend b.b_count b.b_class b.b_min_input
