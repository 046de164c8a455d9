(** The orchestrated fuzzing campaign: coverage-guided input
    generation on the {!Engine.Pipeline} domain pool with the
    hardening checks as the crash oracle.  Deterministic for a given
    (target, backend, seeds, config) — independent of [--jobs].  See
    docs/FUZZING.md for the campaign anatomy and the triage
    contract. *)

type config = {
  budget : int;     (** campaign executions (seeds included) *)
  seed : int;       (** LCG seed: same seed, same report *)
  max_steps : int;  (** per-execution VM step budget (hang oracle) *)
}

val default_config : config

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

val execute_image :
  max_steps:int -> 's Redfat.runtime -> Redfat.image -> int list ->
  exec_result
(** One execution from the image of a hardened binary under the
    runtime (whose backend is the one the binary records), with AFL
    edge/site coverage and the oracle's verdict.  Edges hash
    consecutive check sites and consecutive {!E9afl} probe ids.  Under
    {!Redfat.Profiling}, the runtime {!Engine.Pipeline.profile} runs,
    a failed check does not stop the run.  Pure per call, so
    executions fan out over domains safely; a campaign builds one
    image and starts every execution from it. *)

val execute : ?max_steps:int -> Binfmt.Relf.t -> int list -> exec_result
(** {!execute_image} of a fresh image of the binary under libredfat in
    Harden mode.  bench/perf's [fuzz.exec_us] probe is the last
    caller; the benchmark change of ROADMAP item 1 removes it. *)

val run_exec :
  Engine.Pipeline.t ->
  ?config:config ->
  target:string ->
  ?seeds:int list list ->
  Binfmt.Relf.t ->
  report
(** Fuzz a hardened binary (inputs = VM input scripts).  Records
    [fuzz.*] campaign counters and the [fuzz.exec_cycles] histogram
    into the engine's collector.  On [(E9afl.instrument b).binary]
    this is the probe-edge-guided fuzzer. *)

val run_profile :
  Engine.Pipeline.t ->
  ?config:config ->
  target:string ->
  ?seeds:int list list ->
  Binfmt.Relf.t ->
  report * int list list
(** Grow a profiling test suite for an {e unhardened} binary (paper
    §5's coverage booster): fuzz its [Rewrite.profiling_build] under a
    Log-mode profiling runtime, with the check sites reached as
    coverage.  Returns the report (mode ["profile"]) and the kept
    corpus, oldest first, as a [test_suite] for
    {!Engine.Pipeline.profile}. *)

type parser_target = Relf_parser | Minic_parser | X64_decoder

val parser_name : parser_target -> string

val parse_once : parser_target -> string -> exec_result
(** One parse attempt; the crash is a typed rejection — [parse.*] for
    the RELF and MiniC parsers, [decode.insn] for the x64 decoder,
    which sweeps the bytes as one code blob — or [run.fault] when the
    parser escapes with anything else (a genuine parser bug). *)

val run_parse :
  Engine.Pipeline.t ->
  ?config:config ->
  which:parser_target ->
  seeds:string list ->
  unit ->
  report
(** Fuzz a parser (inputs = raw bytes; seed with a corrupt corpus). *)

val minimize_inputs : (int list -> bool) -> int list -> int list
(** Greedy bounded ddmin for int vectors: drop elements, then shrink
    values, re-checking the predicate at every step. *)

val minimize_bytes : (string -> bool) -> string -> string

val to_json : report -> string
val reports_json : report list -> string
(** Several campaigns as one [--out] document (schema in the MANUAL). *)

val counters : report -> (string * int) list
(** The per-campaign [fuzz.*] counters, in
    {!Engine.Report.add_target} shape. *)

val bug_summary : bug -> string
(** One human line per bug. *)
