(** The crash/triage oracle: hardening detections and typed faults as
    bug-finding verdicts, deduplicated by
    [(oracle code, check site, backend)].  The full contract lives in
    docs/FUZZING.md. *)

type crash = {
  c_code : string;   (** stable oracle code ([detect.oob-upper], ...) *)
  c_site : int;      (** dedup site: check site, rip, or source line *)
  c_detail : string;
}

val kind_slug : Redfat_rt.Runtime.error_kind -> string
(** The stable [detect.] suffix for a runtime error kind. *)

val of_verdict : rip:int -> Redfat.run_result * Redfat.verdict -> crash option
(** The crash a {!Redfat.exec} result reports, [None] for a finished
    run.  A detection is [detect.<kind>] at the guarded site; a fault
    is classified by its exit code: 124 is [run.timeout] at site 0,
    134 (allocator abort) is [detect.bad-free] at [rip], anything else
    is [run.fault] at [rip].  The detail is the verdict text. *)

val bug_class : string -> string
(** The CWE-annotated attack-class label a report attributes to an
    oracle code. *)

val is_detection : string -> bool
(** [detect.*] codes: the backend classified the corruption (vs a
    hang, unclassified crash, or typed parser rejection). *)
