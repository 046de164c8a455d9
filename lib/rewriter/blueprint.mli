(** Hash-consed instrumentation blueprints.

    A {e blueprint} is the address-independent half of a rewrite: the
    complete instrumentation plan — patch tactics, eviction lists,
    merged check groups with their variants and canonical operands,
    save-specialization specs, every elimination record and the
    covering plan of each check global elimination dropped — with
    every concrete address abstracted to its instruction {e index}.
    Two texts whose instruction streams have the same {e shape}
    (identical opcodes, operands and immediates once intra-text
    branch targets and code-pointer constants are rewritten to
    offsets) plan identically, so the blueprint is computed once and
    shared through a process-global interning table.

    The split is what makes re-hardening cheap: on a table hit the
    rewriter skips graph construction, operand canonicalization,
    dominators, loop analysis, the availability solve and liveness —
    emission merely instantiates indices at the text's concrete
    addresses.  Sharing is sound because planning consumes no absolute
    address except through the two channels the key covers: intra-text
    control-flow targets (abstracted to offsets) and [Mov_ri]
    constants pointing into the text (which constant-fold into operand
    displacements — any such constant pins the key to the exact
    [text_addr], forfeiting cross-address sharing for that shape).

    The table is domain-safe: lookups and inserts are mutex-guarded,
    while blueprint construction runs outside the lock, so two domains
    racing on the same fresh shape may both build it (same
    deterministic result; the duplicate work is observable only via
    the [blueprint.miss] counter, mirroring {!Engine.Cache.memo}). *)

(** One merged check group.  [bg_members] are the guarded sites as
    [(instruction index, planned variant)]; the empty list marks a
    hoisted (loop-preheader) group, whose covered sites are the
    [Hoist] records of {!t.b_records} citing its plan. *)
type bgroup = {
  bg_variant : X64.Isa.variant;
  bg_mem : X64.Isa.mem;  (** canonical operand, displacement included *)
  bg_lo : int;
  bg_hi : int;  (** covered displacement interval [lo, hi) *)
  bg_write : bool;
  bg_site : int;  (** representative site, as an instruction index *)
  bg_members : (int * X64.Isa.variant) list;
}

(** One trampoline-and-patch plan, anchored at instruction index
    [bp_first].  [bp_tactic]/[bp_displaced] are {!Patch.decide}'s
    decision at planning time (it depends only on instruction lengths,
    leaders and other patch starts): the tactic and the indices
    re-encoded into the trampoline;
    [bp_nsaves]/[bp_save_flags] is the save-specialization spec of the
    first emitted group. *)
type bplan = {
  bp_first : int;
  bp_tactic : Patch.tactic;
  bp_displaced : int list;
  bp_nsaves : int;
  bp_save_flags : bool;
  bp_groups : bgroup list;
}

type t = {
  b_plans : bplan list;
      (** ascending by [bp_first].  A plan whose groups global
          elimination dropped entirely is absent: it still counted as a
          patch start when the other plans' tactics were decided, but
          it patches nothing *)
  b_records : (int * Dataflow.Elimtab.reason) list;
      (** every elimination record as (site index, reason), with the
          covering site of a [Dom]/[Hoist] reason an instruction index
          too ([bp_first] of the emitting plan); never [Skip], which
          only emission decides.  Order is irrelevant: the elimtab is
          sorted after address instantiation *)
  b_dropped : int list;
      (** one entry per group global elimination dropped: the
          [bp_first] of the plan whose check covers it *)
  b_mem_ops : int;
}

val shape_key :
  opts_key:string ->
  text_addr:int ->
  text_end:int ->
  X64.Disasm.stream ->
  string
(** The interning key for a text's instruction stream under an options
    rendering ([opts_key] must determine every planning decision,
    including allow-list membership rewritten to text-relative
    offsets).  Equal keys guarantee equal blueprints. *)

val find_or_build : ?obs:Obs.t -> key:string -> (unit -> t) -> t
(** Interned lookup; on a miss, [build] runs outside the table lock
    and the result is published (first writer wins on a race).  Bumps
    [blueprint.hit] / [blueprint.miss] / [blueprint.unique] on [obs].
    The table is size-capped: beyond the cap, misses still build but
    are no longer retained (long-running daemons cannot grow it
    without bound). *)

val size : unit -> int
(** Number of interned blueprints (diagnostics and tests). *)

val reset : unit -> unit
(** Drop every interned blueprint (tests needing cold-table counters). *)
