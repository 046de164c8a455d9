(** The elimination table ([.elimtab] section): a hardened binary's
    record of every check the rewriter chose not to emit, with a
    machine-checkable justification per site, plus the instrumentation
    policy (whether reads/writes were instrumented at all). *)

type reason =
  | Clear          (** syntactic rule: operand cannot reach the heap *)
  | Dom of int     (** covered by the check at this patch address *)
  | Skip
      (** degraded to uninstrumented after a site fault: weaker but
          sound, and recorded so the linter can tell an audited
          downgrade from a rewriter bug *)
  | Hoist of int * int * int
      (** [Hoist (site, lo, hi)]: covered by a widened loop-preheader
          check at patch address [site] whose hull spans displacements
          [lo, hi) relative to the widened operand.  Proof-carrying:
          the linter re-derives the hull with {!Loops.member_hoist}
          and rejects the binary unless the recorded hull subsumes the
          derived one and the covering check is really available. *)

type t = {
  backend : string;
      (** check backend that hardened the binary ({!default_backend}
          when the policy line carries no [backend=] token, so
          pre-backend binaries parse unchanged) *)
  reads : bool;
  writes : bool;
  entries : (int * reason) list;
}

val section_name : string

val default_backend : string
(** ["lowfat"]: the backend assumed — and omitted from {!render} — when
    no [backend=] token is recorded. *)

val default : t
(** reads and writes instrumented, nothing eliminated, default backend
    — the assumption for hardened binaries predating the elimination
    table. *)

val render : t -> string

val compare_entry : int * reason -> int * reason -> int
(** Polymorphic [compare]'s order on entries: by address, then
    reason. *)

val parse : string -> t
(** Raises {!Binfmt.Reader.Error}: [Int] for an unreadable address or
    hull bound, [Section] for any other malformed line. *)
