(* The pluggable Check_backend architecture: parity of the refactored
   spatial backends with the pre-refactor behaviour, cache-key
   separation, self-describing binaries, and the temporal lock-and-key
   backend's detection guarantees. *)

module Rw = Rewriter.Rewrite
module CB = Backend.Check_backend

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let kernels () =
  List.map
    (fun (b : Workloads.Spec.bench) -> (b.name, Workloads.Spec.binary b))
    Workloads.Spec.all

let section_bytes binary name =
  match Binfmt.Relf.find_section binary name with
  | Some s -> s.bytes
  | None -> Alcotest.failf "section %s missing" name

(* --- spatial parity ------------------------------------------------- *)

(* The default-backend path must stay byte-identical to the seed: the
   Lowfat backend records no [backend=] token, so a binary hardened
   with the pre-refactor rewriter and one hardened through the
   Check_backend dispatch serialize to the same bytes. *)
let test_default_path_is_seed_shaped () =
  List.iter
    (fun (name, bin) ->
      let implicit = Redfat.harden ~opts:Rw.optimized bin in
      let explicit_ =
        Redfat.harden ~opts:{ Rw.optimized with backend = CB.Lowfat } bin
      in
      Alcotest.(check string) (name ^ " bytes")
        (Binfmt.Relf.serialize implicit.binary)
        (Binfmt.Relf.serialize explicit_.binary);
      Alcotest.(check bool) (name ^ " stats") true
        (implicit.stats = explicit_.stats);
      let etab = section_bytes implicit.binary Dataflow.Elimtab.section_name in
      Alcotest.(check bool) (name ^ " no backend token") false
        (let re = "backend=" in
         let n = String.length re in
         let rec has i =
           i + n <= String.length etab
           && (String.sub etab i n = re || has (i + 1))
         in
         has 0);
      Alcotest.(check bool) (name ^ " adopts lowfat") true
        (Redfat.backend_of_binary implicit.binary = CB.Lowfat))
    (kernels ())

(* The Redzone backend is the Lowfat backend with an empty allowlist:
   same plans, same emission, so .text and .redfat agree byte for byte
   (the .elimtab differs only by the recorded policy). *)
let test_redzone_equals_demoted_lowfat () =
  List.iter
    (fun (name, bin) ->
      let demoted =
        Redfat.harden
          ~opts:{ Rw.optimized with allowlist = Some []; backend = CB.Lowfat }
          bin
      in
      let redzone =
        Redfat.harden ~opts:{ Rw.optimized with backend = CB.Redzone } bin
      in
      Alcotest.(check string) (name ^ " .text")
        (section_bytes demoted.binary ".text")
        (section_bytes redzone.binary ".text");
      Alcotest.(check string) (name ^ " .redfat")
        (section_bytes demoted.binary ".redfat")
        (section_bytes redzone.binary ".redfat");
      Alcotest.(check int) (name ^ " no full sites") 0
        redzone.stats.full_sites;
      Alcotest.(check bool) (name ^ " adopts redzone") true
        (Redfat.backend_of_binary redzone.binary = CB.Redzone))
    (kernels ())

(* --- cache-key separation ------------------------------------------- *)

let test_options_key_separates_backends () =
  let keys =
    List.map (fun b -> Rw.options_key { Rw.optimized with backend = b }) CB.all
  in
  Alcotest.(check int) "pairwise distinct" (List.length CB.all)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check string) "default = explicit lowfat"
    (Rw.options_key Rw.optimized)
    (Rw.options_key { Rw.optimized with backend = CB.Lowfat })

(* --- every backend is self-describing and runs clean ---------------- *)

let test_backends_run_clean () =
  let b = Workloads.Spec.find "mcf" in
  let bin = Workloads.Spec.binary b in
  List.iter
    (fun id ->
      let hard = Redfat.harden ~opts:{ Rw.optimized with backend = id } bin in
      Alcotest.(check bool) (CB.name id ^ " self-describing") true
        (Redfat.backend_of_binary hard.binary = id);
      let r =
        Redfat.run ~inputs:(Workloads.Spec.ref_inputs b) hard.binary libredfat
      in
      match r.verdict with
      | Redfat.Finished 0 -> ()
      | v ->
        Alcotest.failf "%s: expected clean run, got %s" (CB.name id)
          (Redfat.verdict_to_string v))
    CB.all

(* --- the temporal backend's detection guarantees -------------------- *)

let temporal_harden bin =
  Redfat.harden ~opts:{ Rw.optimized with backend = CB.Temporal } bin

let test_temporal_detects_suite () =
  List.iter
    (fun (c : Workloads.Uaf.case) ->
      let hard = temporal_harden (Workloads.Uaf.binary c) in
      let b =
        Redfat.run ~inputs:Workloads.Uaf.benign_inputs hard.binary libredfat
      in
      (match b.verdict with
       | Redfat.Finished 0 -> ()
       | v -> Alcotest.failf "%s benign: %s" c.id (Redfat.verdict_to_string v));
      let a =
        Redfat.run ~inputs:Workloads.Uaf.attack_inputs hard.binary libredfat
      in
      match a.verdict with
      | Redfat.Detected e ->
        Alcotest.(check string) (c.id ^ " kind") "use-after-free"
          (Redfat_rt.Runtime.kind_name e.kind)
      | v -> Alcotest.failf "%s attack: %s" c.id (Redfat.verdict_to_string v))
    Workloads.Uaf.all

(* Slot reuse defeats the spatial backends (the dangling access hits a
   live object); the stale key does not match the recycled slot's
   fresh lock. *)
let test_temporal_detects_reuse () =
  let bin = Minic.Codegen.compile Workloads.Uaf.reuse_case in
  let hard = temporal_harden bin in
  match (Redfat.run hard.binary libredfat).verdict with
  | Redfat.Detected e ->
    Alcotest.(check string) "kind" "key mismatch (stale pointer)"
      (Redfat_rt.Runtime.kind_name e.kind)
  | v -> Alcotest.failf "expected detection, got %s" (Redfat.verdict_to_string v)

(* A double free is a typed detection under the temporal backend, not
   an allocator abort. *)
let test_temporal_detects_double_free () =
  let bin = Minic.Codegen.compile Workloads.Uaf.double_free_case in
  let hard = temporal_harden bin in
  let safe = Redfat.run ~inputs:[ 0 ] hard.binary libredfat in
  (match safe.verdict with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "safe ordering: %s" (Redfat.verdict_to_string v));
  match (Redfat.run ~inputs:[ 1 ] hard.binary libredfat).verdict with
  | Redfat.Detected e ->
    Alcotest.(check string) "kind" "double free"
      (Redfat_rt.Runtime.kind_name e.kind)
  | v -> Alcotest.failf "expected detection, got %s" (Redfat.verdict_to_string v)

(* An unrecognized backend name in .elimtab is the typed [run.backend]
   fault, not a silent fallback to some other backend's semantics. *)
let test_unknown_backend_faults () =
  (try ignore (CB.of_name_exn "quarantine") ;
     Alcotest.fail "of_name_exn accepted an unknown backend"
   with CB.Unknown n -> Alcotest.(check string) "name" "quarantine" n);
  let f = Engine.Fault.of_exn (CB.Unknown "quarantine") in
  Alcotest.(check string) "fault code" "run.backend" (Engine.Fault.code f)

(* A malformed .elimtab is a typed parse.section fault: falling back
   to the default backend would run a temporal binary under the lowfat
   runtime and report a false use-after-free on a benign input. *)
let test_malformed_policy_faults () =
  let src = In_channel.with_open_text "../examples/victim.mc" In_channel.input_all in
  let bin = Minic.Codegen.compile (Minic.Parser.parse_program src) in
  let hard =
    Redfat.harden ~opts:{ Rw.optimized with backend = CB.Temporal } bin
  in
  let flip (s : Binfmt.Relf.section) =
    if s.name <> Dataflow.Elimtab.section_name then s
    else
      let b = Bytes.of_string s.bytes in
      let i =
        Option.get (Seq.find (fun i -> Bytes.sub_string b i 8 = "writes=1")
                      (Seq.init (Bytes.length b - 7) Fun.id))
      in
      Bytes.set b (i + 7) 'X';
      { s with bytes = Bytes.to_string b }
  in
  let bad = { hard.binary with sections = List.map flip hard.binary.sections } in
  match Redfat.run ~inputs:[ 3 ] bad libredfat with
  | r -> Alcotest.failf "ran: %s" (Redfat.verdict_to_string r.verdict)
  | exception e ->
    Alcotest.(check string) "fault code" "parse.section"
      Engine.Fault.(code (of_exn e))

(* Page 0 stays unmapped in every build: the hardened binary's
   metadata sections sit at address 0 but are never loaded, so a null
   load faults there as it does in the original. *)
let test_null_deref_faults () =
  let open Minic.Build in
  let bin =
    Minic.Codegen.compile
      (Minic.Ast.program
         [
           Minic.Ast.func ~name:"main"
             [
               let_ "x" Minic.Ast.Input;
               print_ (Minic.Ast.Load (Minic.Ast.E8, i 0, v "x"));
             ];
         ])
  in
  let segv = "fault: segfault at 0" in
  let bv = (Redfat.run ~inputs:[ 0 ] bin Baseline).verdict in
  Alcotest.(check string) "baseline" segv (Redfat.verdict_to_string bv);
  List.iter
    (fun backend ->
      let hard = Redfat.harden ~opts:{ Rw.optimized with backend } bin in
      let hr = Redfat.run ~inputs:[ 0 ] hard.binary libredfat in
      Alcotest.(check string) (CB.name backend) segv
        (Redfat.verdict_to_string hr.verdict))
    CB.all

let tests =
  [
    Alcotest.test_case "null dereference faults in every build" `Quick
      test_null_deref_faults;
    Alcotest.test_case "malformed policy line faults" `Quick
      test_malformed_policy_faults;
    Alcotest.test_case "default path seed-shaped" `Quick
      test_default_path_is_seed_shaped;
    Alcotest.test_case "redzone = demoted lowfat" `Quick
      test_redzone_equals_demoted_lowfat;
    Alcotest.test_case "options_key separates backends" `Quick
      test_options_key_separates_backends;
    Alcotest.test_case "all backends run clean" `Quick
      test_backends_run_clean;
    Alcotest.test_case "temporal detects the suite" `Slow
      test_temporal_detects_suite;
    Alcotest.test_case "temporal detects slot reuse" `Quick
      test_temporal_detects_reuse;
    Alcotest.test_case "temporal detects double free" `Quick
      test_temporal_detects_double_free;
    Alcotest.test_case "unknown backend faults" `Quick
      test_unknown_backend_faults;
  ]
