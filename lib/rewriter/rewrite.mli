(** The RedFat static binary rewriter (paper §3-§6): E9Patch-style
    trampoline patching with the check elimination, batching, merging
    and global (dominance-based) elimination optimizations. *)

type options = {
  elim : bool;              (** check elimination (§6) *)
  batch : bool;             (** check batching (§6) *)
  merge : bool;             (** check merging (§6) *)
  global_elim : bool;
      (** drop checks dominated by an equivalent/covering available
          check; every drop is recorded in the [.elimtab] section with
          its justifying site for the soundness linter *)
  scratch_opt : bool;       (** trampoline save specialization (§6) *)
  instrument_reads : bool;
  instrument_writes : bool;
  allowlist : int list option;
      (** [None]: every site gets the backend's primary check.
          [Some sites]: under the [Lowfat] backend, Full only for
          listed sites, Redzone otherwise (production phase of the §5
          workflow); other backends plan independently of it. *)
  hoist : bool;
      (** loop-aware check hoisting: a member of a counted loop whose
          access hull is derivable ({!Dataflow.Loops.member_hoist})
          and whose variant the backend can widen
          ({!Backend.Check_backend.S.widen}) is covered by one widened
          check in the loop preheader instead of a per-iteration
          check.  Every covered site is recorded in [.elimtab] as a
          proof-carrying [hoist] entry that {!Dataflow.Verify}
          re-derives and checks for subsumption.  Off in every preset
          except {!with_hoist}, keeping default outputs byte-identical
          to the pre-hoist rewriter. *)
  profiling : bool;
      (** profiling build: per-site checks (no merging), all Full *)
  backend : Backend.Check_backend.id;
      (** the check backend that plans and emits the instrumentation
          ({!Backend.Check_backend.default} = [Lowfat], the paper's
          complementary design).  Recorded in the [.elimtab] policy
          line, folded into {!options_key} (and thus every cache key),
          and adopted by the runtime and the soundness linter. *)
}

val unoptimized : options
(** Table 1's "unoptimized" column. *)

val with_elim : options
val with_batch : options

val optimized : options
(** Table 1's "+merge" column: all optimizations, including global
    elimination and liveness-driven save specialization. *)

val production : allowlist:int list -> options

val with_hoist : options
(** {!optimized} plus loop-aware check hoisting (the CLI's [--hoist]). *)

val profiling_build : options
(** Per-site observable checks; global elimination is forced off (an
    eliminated site would never report to the profiler).  A profiling
    build is always a default-backend build: {!rewrite} ignores the
    [backend] of options with [profiling] set. *)

val options_key : options -> string
(** Canonical rendering of every field, for content-hash cache keys:
    equal keys imply identical rewrites of the same input binary. *)

type stats = {
  instrs_total : int;
  mem_ops : int;
  eliminated : int;
  eliminated_global : int;
      (** checks (merged groups, not sites) dropped by global
          elimination whose covering check was emitted, degraded or
          not; a drop whose covering plan was skipped is not counted,
          and its sites become [skip] records *)
  instrumented : int;
  full_sites : int;
  redzone_sites : int;
  temporal_sites : int;     (** sites guarded by a lock-and-key check *)
  trampolines : int;
  checks_emitted : int;
  zero_save_sites : int;    (** trampolines needing no register saves *)
  jump_patches : int;
  evictions : int;
  trap_patches : int;
  degraded_sites : int;
      (** sites whose plan faulted and was downgraded from the
          backend's primary check to its fallback (fault policy
          {!Degrade}) *)
  skipped_sites : int;
      (** sites left uninstrumented after both emission attempts
          faulted, each recorded as an [.elimtab] [skip] entry the
          soundness linter audits *)
  hoisted_checks : int;
      (** widened checks emitted in loop preheaders, each standing in
          for the per-iteration checks of every site it covers *)
  widened_span_bytes : int;
      (** total hull width (hi - lo) across emitted hoisted checks *)
  text_bytes : int;
  tramp_bytes : int;
  checks_by_kind : (string * int) list;
      (** the emit/elide breakdown, keyed by check kind or elimination
          rule: [emit.full]/[emit.redzone]/[emit.temporal] (emitted
          checks per variant), [elide.clear] (local elimination: operand provably
          never reaches the heap), [elide.dom] (global elimination:
          covered by a dominating available check; equals
          [eliminated_global]), [elide.hoist]
          (sites covered by a widened loop-preheader check),
          [patch.jump]/[patch.trap], [degrade.redzone]/[degrade.skip]
          (fault degradations).  [elide.clear], [elide.hoist] and
          [degrade.skip] count the binary's [.elimtab] entries of
          that kind.  Deterministic; folded into bench JSON
          per-target counters and gated by [tools/bench_diff]. *)
}

type fault_policy =
  | Abort    (** re-raise a site's fault: the whole rewrite fails *)
  | Degrade
      (** downgrade the faulting plan: retry with the backend's
          fallback checks (Redzone for every shipped backend),
          then fall back to uninstrumented with an [.elimtab] [skip]
          record per site.  [Dom] and [hoist] justifications citing a
          skipped plan are downgraded to [skip] too, so the hardened
          binary always passes its own soundness audit. *)

type t = {
  binary : Binfmt.Relf.t;    (** the hardened binary (self-contained) *)
  traps : (int * int) list;  (** patch address -> trampoline address *)
  stats : stats;
}

val default_tramp_base : int
(** The [tramp_base] {!rewrite} uses when none is given
    ({!Lowfat.Layout.trampoline_base}).  Callers that split a binary
    into separately rewritten parts chain their bases from here. *)

val rewrite :
  ?tramp_base:int ->
  ?obs:Obs.t ->
  ?on_fault:fault_policy ->
  ?fault_hook:(stage:string -> site:int -> unit) ->
  options ->
  Binfmt.Relf.t ->
  t
(** Instrument a binary.  [tramp_base] places the trampoline section
    (distinct modules of one process need distinct areas, each within
    rel32 reach of their text).  [obs]: record per-phase spans
    (category ["rewrite"]: collect, plan, elim, emit) and mirror the
    per-check-kind counters ([rw.*]) into the collector.

    [on_fault] (default {!Degrade}) governs what a faulting emission
    does to its plan; [fault_hook ~stage ~site] is called at the start
    of every emission attempt ([stage] is ["emit"] or ["retry"],
    [site] the plan's patch address) — it exists for deterministic
    fault injection, and any exception it raises takes the same
    degradation path as a genuine emission fault.  Faults never leave
    the text partially patched: all fallible work goes to the
    trampoline buffer first and is rolled back on error. *)

val is_hardened : Binfmt.Relf.t -> bool

val verify :
  ?allow:int list ->
  Binfmt.Relf.t ->
  (Dataflow.Verify.report, string) result
(** Audit a hardened binary with the rewrite-soundness linter
    ({!Dataflow.Verify}), feeding it the binary's own trap table. *)

val pp_stats : Format.formatter -> stats -> unit
