(** Rewrite-soundness linter: audit a hardened binary from the file
    alone.  Decodes the [.redfat] trampolines, restores the displaced
    instructions to their original addresses, re-derives the block
    graph with the same leader recovery the rewriter used, and proves
    every memory operand is checked in its own trampoline, covered by
    an available check from a dominating patch site, eliminated with a
    re-verifiable recorded justification ([.elimtab]), excluded by the
    recorded instrumentation policy, or allow-listed.  Anything else
    fails the lint. *)

type status =
  | Checked
  | Covered of int          (** covering patch-site address *)
  | Eliminated_clear
  | Eliminated_dom of int   (** justifying patch-site address *)
  | Eliminated_hoist of int
      (** proof-carrying loop hoist: the recorded hull re-derived
          (same {!Loops.member_hoist} as the rewriter), shown to
          subsume the independent derivation, and the widened covering
          check proven available from this preheader patch address *)
  | Policy_skipped
  | Degraded
      (** recorded [skip] entry: the rewriter faulted at this site and
          degraded it to uninstrumented under its graceful-degradation
          policy — accounted for, but flagged in the report *)
  | Allowlisted

type failure = { f_addr : int; f_reason : string }

type report = {
  total : int;              (** memory operands examined *)
  checked : int;
  covered : int;
  elim_clear : int;
  elim_dom : int;
  elim_hoist : int;         (** proved loop-hoist subsumptions *)
  policy_skipped : int;
  degraded : int;           (** recorded [skip] downgrades *)
  allowlisted : int;
  units : int;              (** trampoline units decoded *)
  failures : failure list;
}

val ok : report -> bool

val run :
  ?allow:int list ->
  traps:(int * int) list ->
  Binfmt.Relf.t ->
  (report, string) result
(** [Error _] for a structurally unauditable binary (no text, not
    hardened); a malformed [.elimtab] raises {!Binfmt.Reader.Error}
    as {!Elimtab.parse}.  Otherwise a report whose
    [failures] list the proof obligations that did not discharge.
    [traps] is the binary's trap table (its [.traptab] section);
    [allow] lists instruction addresses accepted without proof. *)

val pp_report : Format.formatter -> report -> unit
