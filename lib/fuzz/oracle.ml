(** The crash/triage oracle: hardening detections and typed faults as
    bug-finding verdicts.

    The contract (documented in docs/FUZZING.md): every way an
    execution can end abnormally maps to a {e stable oracle code},
    and a campaign deduplicates crashes into bugs keyed by
    [(oracle code, check site, backend)].

    - [detect.*] codes are the paper's point: the installed backend
      classified the corruption at the faulting check site
      ([detect.oob-upper], [detect.use-after-free], ...).  The site in
      the key is the {e guarded instruction}, so two different inputs
      tripping the same broken access collapse into one bug.
    - [run.timeout] is the hang oracle (step-budget exhaustion).
    - [run.fault] is an unclassified crash — in an exec campaign a
      miss the backend should have caught; in a parser campaign a
      genuine parser bug (parsers must reject with typed [parse.*]
      faults, never crash).
    - [parse.*] codes (parser campaigns) are typed rejections: each
      distinct code is one robustness class reached; [decode.insn] is
      the x64 decoder's one typed rejection. *)

type crash = {
  c_code : string;   (** stable oracle code *)
  c_site : int;      (** dedup site: check site, rip, or source line *)
  c_detail : string;
}

let kind_slug : Redfat_rt.Runtime.error_kind -> string = function
  | Redfat_rt.Runtime.Use_after_free -> "use-after-free"
  | Oob_lower -> "oob-lower"
  | Oob_upper -> "oob-upper"
  | Corrupt_meta -> "corrupt-meta"
  | Key_mismatch -> "stale-key"
  | Double_free -> "double-free"

(** The crash a run's verdict reports, by {!Redfat.exec}'s exit-code
    convention; [rip] is where the run stopped. *)
let of_verdict ~rip ((r : Redfat.run_result), (v : Redfat.verdict)) =
  let crash c_code c_site =
    Some { c_code; c_site; c_detail = Redfat.verdict_to_string v }
  in
  match v with
  | Redfat.Finished _ -> None
  | Detected e -> crash ("detect." ^ kind_slug e.kind) e.site
  | Fault _ -> (
    match r.exit_code with
    (* site 0: a hang has no single faulting site, and rip at the
       moment the budget runs out would shatter dedup *)
    | 124 -> crash "run.timeout" 0
    | 134 -> crash "detect.bad-free" rip
    | _ -> crash "run.fault" rip)

(** The bug class a campaign report attributes to an oracle code (the
    Table-2-style attack-class vocabulary, CWE-annotated). *)
let bug_class code =
  let has_prefix p =
    String.length code >= String.length p
    && String.sub code 0 (String.length p) = p
  in
  match code with
  | "detect.oob-upper" -> "heap overflow (CWE-122/787)"
  | "detect.oob-lower" -> "heap underflow (CWE-124/786)"
  | "detect.use-after-free" -> "use-after-free (CWE-416)"
  | "detect.stale-key" -> "stale pointer into reused slot (CWE-416)"
  | "detect.double-free" -> "double free (CWE-415)"
  | "detect.corrupt-meta" -> "heap metadata corruption"
  | "detect.bad-free" -> "invalid/double free, allocator abort (CWE-415/761)"
  | "run.timeout" -> "hang / livelock (CWE-835)"
  | "run.fault" -> "unclassified crash"
  | _ when has_prefix "parse." -> "malformed input rejected (typed parse fault)"
  | "decode.insn" -> "malformed code rejected (typed decode fault)"
  | _ -> "unclassified"

(** Is the code a backend detection (as opposed to a hang, an
    unclassified crash, or a typed parser rejection)? *)
let is_detection code =
  String.length code >= 7 && String.sub code 0 7 = "detect."
