(* doc_check: fail the build when the documentation drifts from the
   code.  Eight checks:

   1. every CLI flag declared in bin/redfat_cli.ml appears in
      docs/MANUAL.md (and the manual doesn't document flags that no
      longer exist);
   2. the fault-taxonomy table embedded in docs/MANUAL.md is exactly
      [Engine.Fault.registry_markdown ()] (what `redfat errors --list`
      prints), and every registry code is mentioned;
   3. every intra-repo markdown link in the top-level and docs/
      markdown files resolves to an existing file;
   4. every CLI subcommand has a `### `redfat NAME`` section in
      docs/MANUAL.md, and the manual documents no verb the CLI does
      not declare;
   5. every `fuzz.*`, `rebuild.*` or `serve.*` counter or histogram
      docs/INTERNALS.md names in backticks is recorded in
      bench/baseline.json — the bench gate's committed report — so the
      doc can never name a gated figure the bench stopped emitting;
   6. the set of `Cache.key ~kind:"..."` literals under lib/ equals the
      backticked kinds on docs/INTERNALS.md's one "Artifact kinds:"
      line, so §15 can never list a kind the cache no longer stores
      (or miss a new one);
   7. every backticked `Lib.Module` path in README, DESIGN, EXPERIMENTS
      and docs/*.md whose first part names a dune library under lib/
      resolves: to lib/<dir>/<module>.ml, or to a `module Module`
      declaration in that library; and every backticked
      `Redfat.value` there is a `val` of lib/core/redfat.mli (ROADMAP
      and CHANGES narrate history and are not checked).
   8. no .ml file under lib/ or bin/ other than lib/obs/obs.ml writes
      a [\\u%04x] escape: Obs.Json is the one JSON writer, so a second
      string escaper means a second hand-written encoder.

   Run from the repository root (make check / make doc-check / the CI
   docs job): exits 1 listing every violation. *)

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let read_file_exn what path =
  match read_file path with
  | Some s -> s
  | None ->
    Printf.eprintf "doc_check: cannot read %s (%s) -- run from the repo root\n"
      path what;
    exit 2

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

(* group 1 of every non-overlapping match of [re] in [s], in order *)
let matches re s =
  let rec go i acc =
    match Str.search_forward re s i with
    | _ ->
      let m = Str.matched_group 1 s in
      go (Str.match_end ()) (m :: acc)
    | exception Not_found -> List.rev acc
  in
  go 0 []

(* --- 1. CLI flags vs the manual ------------------------------------- *)

(* scrape `info [ "o"; "output" ] ...` occurrences out of the CLI
   source: every quoted string inside the first [...] after `info` is a
   flag name (positional args use `info []` and contribute nothing) *)
let cli_flags src =
  let flags = ref [] in
  let re = Str.regexp "info[ \n]*\\[" in
  let i = ref 0 in
  (try
     while true do
       let start = Str.search_forward re src !i in
       let j = ref (start + String.length (Str.matched_string src)) in
       while src.[!j] <> ']' do
         if src.[!j] = '"' then begin
           let k = String.index_from src (!j + 1) '"' in
           flags := String.sub src (!j + 1) (k - !j - 1) :: !flags;
           j := k + 1
         end
         else incr j
       done;
       i := !j
     done
   with Not_found -> ());
  List.sort_uniq compare !flags

let flag_syntax f = if String.length f = 1 then "-" ^ f else "--" ^ f

let check_flags () =
  let src = read_file_exn "the CLI source" "bin/redfat_cli.ml" in
  let manual = read_file_exn "the CLI manual" "docs/MANUAL.md" in
  let flags = cli_flags src in
  if flags = [] then err "no flags scraped from bin/redfat_cli.ml (scraper broken?)";
  List.iter
    (fun f ->
      let s = flag_syntax f in
      if not (contains manual ("`" ^ s)) then
        err "docs/MANUAL.md does not document CLI flag %s" s)
    flags;
  (* the reverse direction: every `--flag` the manual names in backticks
     must exist in the CLI (long flags only; short aliases and grammar
     meta-syntax are too noisy to scrape) *)
  let re = Str.regexp "`--\\([a-z][a-z-]*\\)" in
  let i = ref 0 in
  (try
     while true do
       let p = Str.search_forward re manual !i in
       let f = Str.matched_group 1 manual in
       if not (List.mem f flags) then
         err "docs/MANUAL.md documents `--%s`, which no CLI command declares" f;
       i := p + 1
     done
   with Not_found -> ())

(* --- 4. CLI verbs vs the manual -------------------------------------- *)

(* scrape `Cmd.info "NAME"` subcommand declarations out of the CLI
   source (the group's own "redfat" info is not a verb) *)
let cli_verbs src =
  let re = Str.regexp "Cmd\\.info \"\\([a-z][a-z-]*\\)\"" in
  let i = ref 0 and verbs = ref [] in
  (try
     while true do
       let p = Str.search_forward re src !i in
       let v = Str.matched_group 1 src in
       if v <> "redfat" then verbs := v :: !verbs;
       i := p + 1
     done
   with Not_found -> ());
  List.sort_uniq compare !verbs

let check_verbs () =
  let src = read_file_exn "the CLI source" "bin/redfat_cli.ml" in
  let manual = read_file_exn "the CLI manual" "docs/MANUAL.md" in
  let verbs = cli_verbs src in
  if verbs = [] then
    err "no subcommands scraped from bin/redfat_cli.ml (scraper broken?)";
  List.iter
    (fun v ->
      if not (contains manual (Printf.sprintf "### `redfat %s`" v)) then
        err "docs/MANUAL.md has no `### `redfat %s`` section" v)
    verbs;
  let re = Str.regexp "### `redfat \\([a-z][a-z-]*\\)`" in
  let i = ref 0 in
  (try
     while true do
       let p = Str.search_forward re manual !i in
       let v = Str.matched_group 1 manual in
       if not (List.mem v verbs) then
         err "docs/MANUAL.md documents `redfat %s`, which the CLI does not \
              declare" v;
       i := p + 1
     done
   with Not_found -> ())

(* --- 2. the fault-taxonomy table ------------------------------------- *)

let check_taxonomy () =
  let manual = read_file_exn "the CLI manual" "docs/MANUAL.md" in
  let expected = String.trim (Engine.Fault.registry_markdown ()) in
  let begin_mark = "<!-- BEGIN FAULT TAXONOMY" in
  let end_mark = "<!-- END FAULT TAXONOMY -->" in
  (match (Str.search_forward (Str.regexp_string begin_mark) manual 0,
          Str.search_forward (Str.regexp_string end_mark) manual 0)
   with
  | b, e ->
    let b = String.index_from manual b '\n' + 1 in
    let embedded = String.trim (String.sub manual b (e - b)) in
    if embedded <> expected then
      err
        "the fault-taxonomy table in docs/MANUAL.md differs from \
         `redfat errors --list` -- regenerate it from Engine.Fault.registry"
  | exception Not_found ->
    err "docs/MANUAL.md is missing the FAULT TAXONOMY marker block");
  List.iter
    (fun (i : Engine.Fault.info) ->
      if not (contains manual ("`" ^ i.i_code ^ "`")) then
        err "docs/MANUAL.md does not mention fault code %s" i.i_code)
    Engine.Fault.registry

(* --- 3. intra-repo markdown links ------------------------------------ *)

let md_files () =
  let top =
    Sys.readdir "." |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
  in
  let docs =
    Sys.readdir "docs" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".md")
    |> List.map (Filename.concat "docs")
  in
  top @ docs

let check_links () =
  let root = Sys.getcwd () in
  let re = Str.regexp "\\](\\([^)# ]+\\)[#)]" in
  List.iter
    (fun file ->
      let body = read_file_exn "a markdown file" file in
      let i = ref 0 in
      try
        while true do
          let p = Str.search_forward re body !i in
          let target = Str.matched_group 1 body in
          i := p + 1;
          let external_ =
            List.exists
              (fun p ->
                String.length target >= String.length p
                && String.sub target 0 (String.length p) = p)
              [ "http://"; "https://"; "mailto:" ]
          in
          if not external_ then begin
            let resolved = Filename.concat (Filename.dirname file) target in
            (* links that escape the repo (e.g. the README CI badge's
               ../../actions/... relative to the GitHub UI) are not
               checkable against the working tree *)
            let escapes =
              let rec depth parts d =
                match parts with
                | [] -> false
                | ".." :: rest -> d = 0 || depth rest (d - 1)
                | "." :: rest -> depth rest d
                | _ :: rest -> depth rest (d + 1)
              in
              depth (String.split_on_char '/' resolved) 0
            in
            if (not escapes) && not (Sys.file_exists resolved) then
              err "%s links to %s, which does not exist under %s" file target
                root
          end
        done
      with Not_found -> ())
    (md_files ())

(* --- 5. documented counters vs the bench baseline --------------------- *)

let check_bench_counters () =
  let internals = read_file_exn "the internals doc" "docs/INTERNALS.md" in
  let baseline = read_file_exn "the bench baseline" "bench/baseline.json" in
  let re =
    Str.regexp "`\\(\\(fuzz\\|rebuild\\|serve\\)\\.[a-z_.]+\\)`"
  in
  let i = ref 0 and seen = ref [] in
  (try
     while true do
       let p = Str.search_forward re internals !i in
       let c = Str.matched_group 1 internals in
       if not (List.mem c !seen) then seen := c :: !seen;
       i := p + 1
     done
   with Not_found -> ());
  if !seen = [] then
    err "docs/INTERNALS.md names no `fuzz.*`, `rebuild.*` or `serve.*` \
         counters (scraper broken, or the sections dropped?)";
  List.iter
    (fun c ->
      if not (contains baseline ("\"" ^ c ^ "\"")) then
        err
          "docs/INTERNALS.md names `%s`, which bench/baseline.json does \
           not record -- the bench stopped emitting it" c)
    (List.rev !seen)

(* --- 6. cache artifact kinds vs INTERNALS ------------------------- *)

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then ml_files path
         else if Filename.check_suffix path ".ml" then [ path ]
         else [])

let check_artifact_kinds () =
  let re = Str.regexp "Cache\\.key[ \n]+~kind:\"\\([^\"]*\\)\"" in
  let code =
    List.sort_uniq compare
      (List.concat_map
         (fun f -> matches re (read_file_exn "a library source" f))
         (ml_files "lib"))
  in
  if code = [] then
    err "no Cache.key ~kind literals scraped under lib/ (scraper broken?)";
  let internals = read_file_exn "the internals doc" "docs/INTERNALS.md" in
  match
    List.filter
      (String.starts_with ~prefix:"Artifact kinds:")
      (String.split_on_char '\n' internals)
  with
  | [ line ] ->
    let documented =
      List.sort_uniq compare (matches (Str.regexp "`\\([^`]+\\)`") line)
    in
    List.iter
      (fun k ->
        if not (List.mem k documented) then
          err
            "lib/ stores cache artifacts of kind %S, which the \"Artifact \
             kinds:\" line of docs/INTERNALS.md does not list" k)
      code;
    List.iter
      (fun k ->
        if not (List.mem k code) then
          err
            "docs/INTERNALS.md lists artifact kind `%s`, which no Cache.key \
             ~kind literal under lib/ uses" k)
      documented
  | _ ->
    err "docs/INTERNALS.md needs exactly one line starting \"Artifact kinds:\""

(* --- 7. module paths in the docs ------------------------------------ *)

(* (module name, directory) of every dune library under lib/ *)
let libraries () =
  Sys.readdir "lib" |> Array.to_list |> List.sort compare
  |> List.filter_map (fun d ->
         let dir = Filename.concat "lib" d in
         match read_file (Filename.concat dir "dune") with
         | None -> None
         | Some dune -> (
           match matches (Str.regexp "(name \\([a-z_0-9]+\\))") dune with
           | name :: _ -> Some (String.capitalize_ascii name, dir)
           | [] -> None))

let resolves dir m =
  Sys.file_exists
    (Filename.concat dir (String.uncapitalize_ascii m ^ ".ml"))
  || List.exists
       (fun f ->
         let re = Str.regexp ("module " ^ m ^ "[ :=\n]") in
         match Str.search_forward re (read_file_exn "a library source" f) 0 with
         | _ -> true
         | exception Not_found -> false)
       (ml_files dir)

(* an identifier character or a dot before [p]: the match is the tail
   of a longer path *)
let qualified code p =
  p > 0
  &&
  match code.[p - 1] with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' -> true
  | _ -> false

let check_module_paths () =
  let libs = libraries () in
  if libs = [] then err "no dune libraries found under lib/ (scanner broken?)";
  let api = "lib/core/redfat.mli" in
  let vals =
    matches
      (Str.regexp "^val \\([a-z_][A-Za-z0-9_']*\\)")
      (read_file_exn "the API interface" api)
  in
  if vals = [] then err "no val scraped from %s (scraper broken?)" api;
  let value = Str.regexp "Redfat\\.\\([a-z_][A-Za-z0-9_']*\\)" in
  let docs =
    [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]
    @ List.filter (String.starts_with ~prefix:"docs/") (md_files ())
  in
  let span = Str.regexp "`\\([^`\n]+\\)`" in
  let path = Str.regexp "\\([A-Z][A-Za-z0-9_]*\\)\\.\\([A-Z][A-Za-z0-9_]*\\)" in
  List.iter
    (fun file ->
      List.iter
        (fun code ->
          let rec scan i =
            match Str.search_forward path code i with
            | p ->
              let lib = Str.matched_group 1 code
              and m = Str.matched_group 2 code in
              let next = Str.match_end () in
              (match List.assoc_opt lib libs with
               | Some dir when (not (qualified code p)) && not (resolves dir m) ->
                 err "%s names `%s.%s`, which %s does not define" file lib m
                   dir
               | _ -> ());
              scan next
            | exception Not_found -> ()
          in
          scan 0;
          let rec scan_values i =
            match Str.search_forward value code i with
            | p ->
              let v = Str.matched_group 1 code and next = Str.match_end () in
              if (not (qualified code p)) && not (List.mem v vals) then
                err "%s names `Redfat.%s`, which %s does not declare" file v api;
              scan_values next
            | exception Not_found -> ()
          in
          scan_values 0)
        (matches span (read_file_exn "a markdown file" file)))
    docs

(* --- 8. one JSON string escaper ------------------------------------- *)

let check_json_escapers () =
  let codec = "lib/obs/obs.ml" in
  let escapes f = contains (read_file_exn "a source file" f) "\\\\u%04x" in
  if not (escapes codec) then
    err "%s writes no \\u%%04x escape (scraper broken?)" codec;
  List.iter
    (fun f ->
      if f <> codec && escapes f then
        err "%s escapes JSON strings itself; build an Obs.Json.v and print \
             it with Obs.Json.to_string" f)
    (ml_files "lib" @ ml_files "bin")

let () =
  check_flags ();
  check_verbs ();
  check_taxonomy ();
  check_links ();
  check_bench_counters ();
  check_artifact_kinds ();
  check_module_paths ();
  check_json_escapers ();
  match List.rev !errors with
  | [] -> print_endline "doc_check: docs/MANUAL.md and markdown links are in sync"
  | es ->
    List.iter (fun e -> Printf.eprintf "doc_check: %s\n" e) es;
    Printf.eprintf "doc_check: %d problem(s)\n" (List.length es);
    exit 1
