(** The staged hardening engine: the paper's Figure-5 workflow
    (compile, profile, harden, audit, run) as cached, timed
    primitives plus one {!workflow} that sequences them, over a shared
    artifact cache, a work-stealing domain pool, and per-stage
    observability.

    One [t] per process/invocation.  All primitives are safe to call
    from inside [map] workers (nested fan-out degrades to sequential
    in that worker; the cache and report are mutex-guarded). *)

type t

val create :
  ?jobs:int -> ?cache:bool -> ?cache_dir:string -> ?strict:bool ->
  ?inject:Faultinject.t -> unit -> t
(** [jobs]: worker domains for [map] (default 1 = sequential).
    [cache]: artifact caching on/off.  [cache_dir]: also persist
    artifacts on disk so repeated invocations start warm.

    [strict] (default [false]): fail fast — {!protect} re-raises
    instead of returning [Error], and a faulting rewrite site aborts
    the rewrite ({!Redfat.Rewrite.Abort}) instead of degrading.
    [inject]: a deterministic fault-injection harness
    ({!Faultinject}); its canonical spec is folded into every cache
    key so injected runs never reuse or pollute clean-run
    artifacts. *)

val close : t -> unit
(** Join the worker domains ({!Pool.close}) and close the cache's
    pack ({!Cache.close}): idempotent, and also run
    [at_exit] once the pool has spawned them.  Nothing else holds an
    engine, so a dropped one is collected with its cache's memory
    tier. *)

val jobs : t -> int
val report : t -> Report.t

val obs : t -> Obs.t
(** The engine's collector: stage spans, pool task lifetimes, cache
    hit/miss counters, rewriter phase spans and per-check-kind
    counters all land here (per-domain, lock-free). *)

val cache_stats : t -> Cache.stats
val cache_enabled : t -> bool
val strict : t -> bool
val inject : t -> Faultinject.t

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic-order parallel map over independent work items. *)

(** {2 The fault boundary}

    Faults are recorded once, at this boundary: primitives raise (or
    propagate) exceptions; {!protect} classifies them into the typed
    taxonomy ({!Fault.of_exn}), records them in the report and as
    [fault.<code>] obs counters, and isolates them per target. *)

val protect : t -> target:string -> (unit -> 'a) -> ('a, Fault.t) result
(** Run a thunk with [target] as the current fault provenance (and
    injection label).  An escaping exception is classified, recorded
    ([Report.add_fault] + [fault.<code>] counter) and returned as
    [Error] — or re-raised as [Fault.Fault] when the engine is
    [strict].  Transient faults (cache/IO) get one bounded retry
    before being recorded. *)

val map_targets :
  t -> (string -> 'a) -> string list -> ('a, Fault.t) result list
(** [protect]-wrapped parallel map over targets: one result slot per
    target in input order; a faulting target never cancels the rest of
    the batch (unless [strict], where the first fault fails the whole
    batch deterministically — lowest-index fault wins). *)

val record_fault : t -> Fault.t -> unit
(** Record an already-classified fault (report + counter) without
    raising — for callers that classify at their own boundary. *)

val hook : t -> string -> unit
(** [hook t point] runs the injection point [point] under the current
    {!protect} label — what {!verify} or {!run} run before
    their work — for a caller that answers from its own cache and must
    fail the same requests as a fresh run would. *)

val load_relf : t -> string -> Binfmt.Relf.t
(** Read and parse a RELF file, with typed faults for every way that
    can fail: unreadable file ([io.read]), malformed container
    ([parse.magic]/[parse.truncated]/[parse.int]/[parse.section] via
    {!Fault.of_exn}), and a missing or empty [.text] section
    ([parse.nocode], {!Binfmt.Relf.load}'s gate).  Runs the [io] and
    [parse] injection points. *)

(** {2 Cached, timed stage primitives} *)

val compile : t -> Minic.Ast.program -> Binfmt.Relf.t
(** Compile a MiniC program; cached on a digest of the marshalled
    AST. *)

val harden :
  t -> ?tramp_base:int -> ?opts:Redfat.Rewrite.options -> Binfmt.Relf.t ->
  Redfat.Rewrite.t
(** Statically rewrite through {!Redfat.Shard.rewrite}: a manifest
    keyed by Digest(RELF bytes) + options key + trampoline base, then
    one artifact per slice.  On a manifest miss with the cache
    enabled, the slices are themselves an artifact keyed by
    Digest(RELF bytes) + injection spec ([harden.slices.hit] /
    [harden.slices.miss]), so {!Redfat.Shard.slices} runs once per
    distinct binary however many option sets harden it; with the
    cache disabled the text is one slice and is never partitioned.
    Spans (category ["engine"]) split the engine's own cost:
    [harden.key] (serialize and digest each key), [harden.partition]
    ({!Redfat.Shard.slices}), [harden.splice] ({!Redfat.Shard.rewrite},
    with the parts' lookups and rewrites nested inside), plus the
    cache's [cache.mem], [cache.disk], [cache.unmarshal] and
    [cache.append]. *)

val profile :
  t -> ?max_steps:int -> test_suite:int list list -> Binfmt.Relf.t ->
  Redfat.Allowlist.t
(** Figure-5 profiling phase: the suite's runs are fanned out over the
    pool and merged; the resulting allow-list is cached on
    Digest(RELF bytes) + the suite. *)

val verify :
  t -> ?allow:int list -> Binfmt.Relf.t ->
  (Redfat.Verify.report, string) result
(** Timed run of the rewrite-soundness linter ({!Redfat.Verify}) on a
    hardened binary. *)

val run :
  t -> ?inputs:int list -> ?max_steps:int -> ?acct:Vm.Cpu.acct ->
  ?libs:Binfmt.Relf.t list -> Binfmt.Relf.t -> 's Redfat.runtime ->
  's Redfat.outcome
(** Timed (never cached) {!Redfat.run}: runs are the measurements
    themselves. *)

(** {3 bench/perf's call shapes}

    One-liners over {!run} for the table1 workload of bench/perf, their
    last caller; the benchmark change of ROADMAP item 1 moves it to
    {!run} and removes them. *)

val run_baseline :
  t -> inputs:int list -> Binfmt.Relf.t -> Redfat.run_result * Redfat.verdict

val run_hardened :
  t -> options:Redfat.Runtime.options -> inputs:int list -> Binfmt.Relf.t ->
  Redfat.Runtime.t Redfat.outcome

val run_memcheck :
  t -> inputs:int list -> Binfmt.Relf.t ->
  Redfat.run_result * Redfat.verdict * Baselines.Memcheck.t

val emit_json : t -> ?extra:(string * string) list -> unit -> string
(** The run's report (stages, targets, cache counters, obs counters
    and histograms, jobs, wall) as JSON. *)

val record_vm_acct : t -> Vm.Cpu.acct -> unit
(** Fold a VM per-site check-accounting table ({!run}'s [acct]) into
    the collector: [vm.check.*] counters and [vm.site.*] histograms. *)

val trace_json : t -> string
(** The engine's collector as Chrome trace-event JSON (merge point:
    call only at a quiescent moment, e.g. after the workflow or batches
    finish). *)

(** {2 The Figure-5 workflow} *)

type workflow = {
  hard : Redfat.Rewrite.t;
  audit : Redfat.Verify.report;  (** the hardened binary's soundness audit *)
  base : Redfat.run_result;      (** baseline run of the original *)
}

val workflow :
  t -> ?opts:Redfat.Rewrite.options -> train:int list list ->
  inputs:int list -> Binfmt.Relf.t -> workflow
(** The paper's Figure-5 sequence on a compiled binary, and the only
    place it is written: {!profile} on [train], {!harden} with the
    resulting allow-list added to [opts] (default
    {!Redfat.Rewrite.optimized}), {!verify} of the hardened binary,
    then a baseline {!run} of the original on [inputs].  A failed audit
    raises [verify.unsound]; a baseline that does not finish raises
    [run.baseline].  Each primitive records its own stage span. *)

val summary : workflow -> Redfat.Runtime.t Redfat.outcome -> string
(** The per-target text report over a workflow and the hardened
    binary's Log-mode run: verdict, detections, backend, cycles and
    overhead, coverage and site counts. *)
