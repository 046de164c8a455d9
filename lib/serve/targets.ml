module Fault = Engine.Fault

let workload_names () =
  List.map (fun (b : Workloads.Spec.bench) -> "spec:" ^ b.name)
    Workloads.Spec.all
  @ List.map (fun (c : Workloads.Cve.case) -> "cve:" ^ c.name)
      Workloads.Cve.all
  @ List.map (fun (b : Workloads.Kraken.bench) -> "kraken:" ^ b.name)
      Workloads.Kraken.all
  @ List.map (fun (c : Workloads.Uaf.case) -> "uaf:" ^ c.id) Workloads.Uaf.all
  @ List.map (fun (c : Workloads.Fuzzbugs.case) -> "bug:" ^ c.id)
      Workloads.Fuzzbugs.all
  @ [ "uaf:reuse"; "uaf:double-free"; "chrome"; "synth:<seed>" ]

(* every registry raises Not_found on a name it does not know; this
   one lookup turns that into the typed input.target fault *)
let lookup name find =
  try find ()
  with Not_found ->
    Fault.fail
      (Fault.Input
         {
           what = "target";
           detail = "unknown workload " ^ name ^ " (try: redfat list)";
         })

let find_cve n =
  List.find (fun (c : Workloads.Cve.case) -> c.name = n) Workloads.Cve.all

(* uaf: targets run their ATTACK input as the reference workload (like
   cve: binaries from find_workload), so a Log-mode pipeline run shows
   what the selected backend detects *)
let find_uaf n : Minic.Ast.program * int list * int list =
  match n with
  | "reuse" -> (Workloads.Uaf.reuse_case, [], [])
  | "double-free" -> (Workloads.Uaf.double_free_case, [ 0 ], [ 1 ])
  | _ ->
    let c = List.find (fun (c : Workloads.Uaf.case) -> c.id = n)
        Workloads.Uaf.all
    in
    (c.program, Workloads.Uaf.benign_inputs, Workloads.Uaf.attack_inputs)

(* Resolve a workflow target to (program, train suite, ref inputs).
   Accepts the built-in workload names and MiniC source paths
   (examples/victim.mc style), so the staged commands work on user
   programs too. *)
let find_program name : Minic.Ast.program * int list list * int list =
  if Filename.check_suffix name ".mc" then begin
    if not (Sys.file_exists name) then
      Fault.fail
        (Fault.Io { what = "read"; path = name; detail = "no such file" });
    let src = In_channel.with_open_text name In_channel.input_all in
    match Minic.Parser.parse_program src with
    | prog -> (prog, [ [] ], [])
    | exception Minic.Parser.Parse_error (msg, pos) ->
      Fault.fail
        (Fault.Parse
           {
             what = "source";
             detail =
               Printf.sprintf "%s:%d:%d: parse error: %s" name pos.line
                 pos.col msg;
           })
    | exception Minic.Lexer.Lex_error (msg, pos) ->
      Fault.fail
        (Fault.Parse
           {
             what = "source";
             detail =
               Printf.sprintf "%s:%d:%d: lex error: %s" name pos.line pos.col
                 msg;
           })
  end
  else
    lookup name @@ fun () ->
    match String.split_on_char ':' name with
    | [ "spec"; n ] ->
      let b = Workloads.Spec.find n in
      ( Workloads.Spec.program b,
        [ Workloads.Spec.train_inputs b ],
        Workloads.Spec.ref_inputs b )
    | [ "cve"; n ] ->
      let c = find_cve n in
      (c.program, [ c.benign_inputs ], c.benign_inputs)
    | [ "kraken"; n ] ->
      let b = Workloads.Kraken.find n in
      let inputs = Workloads.Kraken.inputs b in
      (Workloads.Kraken.program b, [ inputs ], inputs)
    | [ "uaf"; n ] ->
      let prog, benign, attack = find_uaf n in
      (prog, [ benign ], attack)
    | [ "bug"; n ] ->
      let c = Workloads.Fuzzbugs.find n in
      (c.program, [ c.benign ], c.attack)
    | [ "chrome" ] -> (Workloads.Chrome.program (), [ [ 0; 50 ] ], [ 0; 50 ])
    | [ "synth"; seed ] -> (
      match Binfmt.Reader.dec_opt seed with
      | Some seed -> (Workloads.Synth.program ~seed (), [ [] ], [])
      | None -> raise Not_found)
    | _ -> raise Not_found

(* a cve: binary reports its attack input, every other workload the
   reference inputs of {!find_program} *)
let find_workload name : Binfmt.Relf.t * int list =
  let prog, _, inputs = find_program name in
  let inputs =
    match String.split_on_char ':' name with
    | [ "cve"; n ] -> (find_cve n).attack_inputs
    | _ -> inputs
  in
  (Minic.Codegen.compile prog, inputs)
