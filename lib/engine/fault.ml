(* The typed error taxonomy.  See fault.mli for the model; the
   registry at the bottom is the single source of truth for the
   documented codes (docs/MANUAL.md is checked against it by
   tools/doc_check, and `redfat errors --list` prints it). *)

type severity = Fatal | Degraded | Skipped

type kind =
  | Parse of { what : string; detail : string }
  | Decode of { addr : int; detail : string }
  | Recover of { detail : string }
  | Rewrite of { what : string; site : int option; detail : string }
  | Cache of { what : string; key : string; detail : string }
  | Verify of { unaccounted : int; detail : string }
  | Run of { what : string; detail : string }
  | Io of { what : string; path : string; detail : string }
  | Input of { what : string; detail : string }

type t = { kind : kind; severity : severity; target : string option }

exception Fault of t

let code_of_kind = function
  | Parse { what; _ } -> "parse." ^ what
  | Decode _ -> "decode.insn"
  | Recover _ -> "recover.cfg"
  | Rewrite { what; _ } -> "rewrite." ^ what
  | Cache { what; _ } -> "cache." ^ what
  | Verify _ -> "verify.unsound"
  | Run { what; _ } -> "run." ^ what
  | Io { what; _ } -> "io." ^ what
  | Input { what; _ } -> "input." ^ what

let code t = code_of_kind t.kind

let detail_of_kind = function
  | Parse { detail; _ }
  | Recover { detail }
  | Rewrite { detail; _ }
  | Cache { detail; _ }
  | Verify { detail; _ }
  | Run { detail; _ }
  | Input { detail; _ } -> detail
  | Decode { addr; detail } -> Printf.sprintf "%s at %#x" detail addr
  | Io { path; detail; _ } -> Printf.sprintf "%s: %s" path detail

let severity_to_string = function
  | Fatal -> "fatal"
  | Degraded -> "degraded"
  | Skipped -> "skipped"

(* --- the documented taxonomy ---------------------------------------- *)

type info = {
  i_code : string;
  i_severity : severity;
  i_meaning : string;
  i_behaviour : string;
}

let registry =
  let i c s m b = { i_code = c; i_severity = s; i_meaning = m; i_behaviour = b } in
  [
    i "parse.magic" Fatal "input is not a RELF file (bad magic)"
      "target reported and skipped; rest of the batch completes";
    i "parse.truncated" Fatal "RELF header or field cut short"
      "target reported and skipped; rest of the batch completes";
    i "parse.int" Fatal
      "an integer field is unreadable or out of range (RELF header, \
       .elimtab/.traptab entry, allow.lst line)"
      "target reported and skipped; rest of the batch completes";
    i "parse.section" Fatal
      "a length, count or line does not fit its structure (RELF section \
       table, .elimtab/.traptab line)"
      "target reported and skipped; rest of the batch completes";
    i "parse.nocode" Fatal "RELF parses but has no (or empty) .text section"
      "target reported and skipped; rest of the batch completes";
    i "parse.source" Fatal "MiniC source failed to lex/parse/compile"
      "target reported and skipped; rest of the batch completes";
    i "decode.insn" Fatal "instruction decoding failed during analysis"
      "target reported and skipped; rest of the batch completes";
    i "recover.cfg" Fatal "CFG recovery failed on the target's code"
      "target reported and skipped; rest of the batch completes";
    i "rewrite.site" Degraded
      "a site's primary check (per the selected backend) could not be \
       emitted"
      "site downgraded to the backend's fallback (redzone-only for every \
       shipped backend); counted in stats.degraded_sites / checks_by_kind \
       degrade.redzone";
    i "rewrite.skip" Skipped
      "a site faulted even for the redzone-only fallback"
      "site left uninstrumented, recorded as a .elimtab `skip` entry the \
       linter audits; counted in stats.skipped_sites / degrade.skip";
    i "rewrite.abort" Fatal
      "the rewrite failed outright (strict fault policy, or a \
       non-site-local fault)"
      "target reported and skipped; rest of the batch completes";
    i "cache.stale" Skipped
      "a disk artifact file is of an older on-disk format (schema change)"
      "file removed, artifact recomputed; cache.stale counter bumped";
    i "cache.corrupt" Skipped
      "a disk record is damaged (garbage header, bit rot)"
      "record marked dead, artifact recomputed; cache.corrupt counter \
       bumped";
    i "cache.io" Degraded "the cache disk tier failed an IO operation"
      "one bounded retry, then recompute without the disk tier";
    i "verify.unsound" Fatal
      "the rewrite-soundness audit found unaccounted memory accesses"
      "target reported and skipped (a hardened binary that fails its own \
       audit is never run)";
    i "run.baseline" Fatal "the uninstrumented baseline run did not finish"
      "target reported and skipped; overheads need a clean baseline";
    i "run.profile" Fatal "a profiling run crashed before classifying sites"
      "target reported and skipped; rest of the batch completes";
    i "run.fault" Fatal "the VM faulted while executing the target"
      "target reported and skipped; rest of the batch completes";
    i "run.backend" Fatal
      "a hardened binary's .elimtab records a check backend this build \
       does not ship"
      "target reported and skipped; re-harden the binary (the runtime \
       cannot guess lock-table or tagging semantics)";
    i "run.timeout" Fatal
      "the VM exhausted its step budget (hang or livelock)"
      "target reported and skipped; fuzz campaigns triage it as a hang \
       bug (CWE-835)";
    i "io.read" Degraded "reading a file failed"
      "one bounded retry, then the target is reported and skipped";
    i "io.write" Degraded "writing a file failed"
      "one bounded retry, then the target is reported and skipped";
    i "input.target" Fatal "unknown workload / target name"
      "target reported and skipped; `redfat list` names the built-ins";
    i "input.script" Fatal "an --inputs script is not comma-separated ints"
      "target reported and skipped; rest of the batch completes";
    i "input.corpus" Fatal
      "a --corpus seed directory is missing, unreadable, or empty"
      "the fuzz campaign aborts before any execution; point --corpus at \
       a directory of seed files";
  ]

let canonical_severity kind =
  let c = code_of_kind kind in
  match List.find_opt (fun i -> i.i_code = c) registry with
  | Some i -> i.i_severity
  | None -> Fatal

let v ?target ?severity kind =
  let severity =
    match severity with Some s -> s | None -> canonical_severity kind
  in
  { kind; severity; target }

let fail ?target ?severity kind = raise (Fault (v ?target ?severity kind))

let is_transient t =
  match t.kind with Cache _ | Io _ -> true | _ -> false

(* --- classification of raw exceptions ------------------------------- *)

let of_exn ?target (e : exn) : t =
  match e with
  | Fault f -> (
    match (f.target, target) with
    | None, Some _ -> { f with target }
    | _ -> f)
  | Binfmt.Reader.Error e ->
    v ?target
      (Parse
         { what = Binfmt.Reader.code e.what; detail = Binfmt.Reader.message e })
  | Minic.Parser.Parse_error (msg, pos) ->
    v ?target
      (Parse
         {
           what = "source";
           detail = Printf.sprintf "%d:%d: parse error: %s" pos.line pos.col msg;
         })
  | Minic.Lexer.Lex_error (msg, pos) ->
    v ?target
      (Parse
         {
           what = "source";
           detail = Printf.sprintf "%d:%d: lex error: %s" pos.line pos.col msg;
         })
  | Minic.Codegen.Compile_error msg ->
    v ?target (Parse { what = "source"; detail = "compile error: " ^ msg })
  | X64.Decode.Decode_error { addr; byte } ->
    v ?target
      (Decode { addr; detail = Printf.sprintf "undecodable byte %#x" byte })
  | Vm.Cpu.Timeout n ->
    v ?target
      (Run
         {
           what = "timeout";
           detail = Printf.sprintf "no exit after %d steps" n;
         })
  | Sys_error msg -> v ?target (Io { what = "read"; path = ""; detail = msg })
  | Backend.Check_backend.Unknown name ->
    v ?target
      (Run
         {
           what = "backend";
           detail = Printf.sprintf "unknown check backend %S recorded" name;
         })
  | Failure msg -> v ?target (Run { what = "fault"; detail = msg })
  | e -> v ?target (Run { what = "fault"; detail = Printexc.to_string e })

(* --- rendering ------------------------------------------------------- *)

let pp fmt t =
  Format.fprintf fmt "fault[%s]%s: %s (%s)" (code t)
    (match t.target with None -> "" | Some tg -> " " ^ tg)
    (detail_of_kind t.kind)
    (severity_to_string t.severity)

let to_string t = Format.asprintf "%a" pp t

let to_json t : Obs.Json.v =
  Obs.Json.(
    Obj
      [
        ("target", Str (Option.value t.target ~default:""));
        ("code", Str (code t));
        ("severity", Str (severity_to_string t.severity));
        ("detail", Str (detail_of_kind t.kind));
      ])

let registry_markdown () =
  let b = Buffer.create 2048 in
  Buffer.add_string b "| code | severity | meaning | behaviour |\n";
  Buffer.add_string b "|---|---|---|---|\n";
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s | %s |\n" i.i_code
           (severity_to_string i.i_severity)
           i.i_meaning i.i_behaviour))
    registry;
  Buffer.contents b
