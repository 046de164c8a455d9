(** The typed error taxonomy of the fault-tolerant pipeline.

    Every way the engine can fail — malformed RELF, undecodable code,
    CFG recovery, a faulting rewrite site, a stale or corrupt cache
    artifact, a failed soundness audit, a crashing run — is one
    constructor of {!kind}, carrying its provenance (file, target or
    site) and classified by {!severity}:

    - [Fatal]: the target cannot be processed; in a batch the target
      is reported and the rest complete (unless [--strict]).
    - [Degraded]: the work completed with weaker-but-sound behaviour
      (a site downgraded to a redzone-only check, a cache artifact
      recomputed, a transient IO retried).
    - [Skipped]: a work item was abandoned with a sound fallback (a
      site left uninstrumented but recorded in [.elimtab], a cache
      artifact ignored).

    Each fault renders to a {e stable string code} ([parse.magic],
    [cache.corrupt], ...) used for [fault.<code>] observability
    counters, per-target records in [--out] JSON, and the documented
    taxonomy table (docs/MANUAL.md, kept in sync by [tools/doc_check]
    against {!registry}). *)

type severity = Fatal | Degraded | Skipped

type kind =
  | Parse of { what : string; detail : string }
      (** malformed input artifact; [what] is the stable sub-code:
          [magic], [truncated], [int], [section], [nocode], [source] *)
  | Decode of { addr : int; detail : string }
      (** instruction decoding failed at [addr] *)
  | Recover of { detail : string }
      (** CFG recovery failed *)
  | Rewrite of { what : string; site : int option; detail : string }
      (** rewriter fault; [what] ∈ [site] (downgraded), [skip]
          (uninstrumented), [abort] (rewrite failed under the strict
          policy) *)
  | Cache of { what : string; key : string; detail : string }
      (** artifact-cache fault; [what] ∈ [stale], [corrupt], [io] *)
  | Verify of { unaccounted : int; detail : string }
      (** the rewrite-soundness audit failed *)
  | Run of { what : string; detail : string }
      (** execution fault; [what] ∈ [baseline], [profile], [fault] *)
  | Io of { what : string; path : string; detail : string }
      (** file-system fault; [what] ∈ [read], [write] *)
  | Input of { what : string; detail : string }
      (** unusable user input; [what] ∈ [target], [script] *)

type t = {
  kind : kind;
  severity : severity;
  target : string option;  (** workload name / file the fault belongs to *)
}

exception Fault of t
(** The one exception the fault-tolerant layers raise and catch.  Raw
    exceptions from lower layers are converted at the engine boundary
    by {!of_exn}. *)

val v : ?target:string -> ?severity:severity -> kind -> t
(** Build a fault; [severity] defaults to the kind's canonical
    severity from {!registry}. *)

val fail : ?target:string -> ?severity:severity -> kind -> 'a
(** [raise (Fault (v ... kind))]. *)

val code : t -> string
(** The stable string code, e.g. ["parse.magic"], ["rewrite.site"]. *)

val severity_to_string : severity -> string

val is_transient : t -> bool
(** Faults worth one bounded retry (cache/IO classes): the state they
    depend on can change between attempts. *)

val of_exn : ?target:string -> exn -> t
(** Classify any exception into the taxonomy: [Fault] passes through
    (adopting [target] if it had none); {!Binfmt.Reader.Error}, MiniC
    parse errors, decoder errors, [Sys_error], and the engine's own
    [Failure] messages map to their codes; anything else becomes a [Run]-class
    fault carrying [Printexc.to_string]. *)

val pp : Format.formatter -> t -> unit
(** One line: [fault[<code>] <target>: <detail> (<severity>)]. *)

val to_string : t -> string

val to_json : t -> Obs.Json.v
(** One JSON object, [{"target": ..., "code": ..., "severity": ...,
    "detail": ...}]: a member of the report's ["faults"] array and the
    ["fault"] field of a failed serve response.  The target is [""]
    for a global fault. *)

(** {2 The documented taxonomy} *)

type info = {
  i_code : string;
  i_severity : severity;  (** canonical severity *)
  i_meaning : string;
  i_behaviour : string;   (** how the pipeline degrades/responds *)
}

val registry : info list
(** Every stable code, its canonical severity, meaning and degradation
    behaviour — the single source of truth behind
    [redfat errors --list], the docs/MANUAL.md taxonomy table and the
    [tools/doc_check] sync check. *)

val registry_markdown : unit -> string
(** The registry as the markdown table embedded in docs/MANUAL.md
    ("Failure semantics" chapter); [redfat errors --list] prints
    exactly this. *)
