(** Exact VM results over a corpus that drives every hook path of
    {!Vm.Cpu}: one line per run with its cycles, steps, memory-access
    counts, verdict and outputs, plus the per-site check accounting of
    the [+merge] runs.  The cost model is deterministic, so any change
    to a line is a change to the model, not noise.

    Hook paths covered:
    - no hooks: every SPEC stand-in's baseline run;
    - [on_check] in profiling mode: the train-input profile run;
    - [on_check] + [acct]: the [+merge] run on the ref input;
    - [on_mem] + [dispatch_cost]: Memcheck on the ref input;
    - [addr_mask]: temporal-backend hardened runs;
    - [on_probe]: an E9AFL edge-coverage run;
    - the trap table: a hardened binary with a trap patch;
    - detections and faults: each [bug:*] case's attack input under
      every backend. *)

module Rw = Redfat.Rewrite
module Rt = Redfat.Runtime
module CB = Backend.Check_backend

let libredfat = Redfat.Hardened Rt.default_options

let log_opts = { Rt.default_options with mode = Rt.Log }

let ints l = String.concat "," (List.map string_of_int l)

let line target config (r : Redfat.run_result) (v : Redfat.verdict) =
  Printf.sprintf
    "%s %s cycles=%d steps=%d reads=%d writes=%d verdict=%s outputs=%s"
    target config r.cycles r.steps r.mem_reads r.mem_writes
    (Redfat.verdict_to_string v) (ints r.outputs)

let acct_line target (a : Vm.Cpu.acct) =
  Printf.sprintf
    "%s merge.acct full=%d redzone=%d temporal=%d cycles=%d sites=%s"
    target a.acct_full a.acct_redzone a.acct_temporal a.acct_cycles
    (String.concat ","
       (List.map
          (fun (s, n, c) -> Printf.sprintf "%#x:%d:%d" s n c)
          (Vm.Cpu.acct_sites a)))

(* a SPEC stand-in, its profiling build, the train-input profile run,
   and the +merge build from that run's allow-list *)
let spec_builds (b : Workloads.Spec.bench) =
  let bin = Workloads.Spec.binary b in
  let prof = Rw.rewrite Rw.profiling_build bin in
  let p =
    Redfat.run ~inputs:(Workloads.Spec.train_inputs b) prof.binary Profiling
  in
  let allow = Rt.allowlist p.state in
  let hard = Rw.rewrite { Rw.optimized with allowlist = Some allow } bin in
  (bin, prof, p, hard)

let spec (b : Workloads.Spec.bench) =
  let target = "spec:" ^ b.name in
  let refs = Workloads.Spec.ref_inputs b in
  let bin, _, p, hard = spec_builds b in
  let { Redfat.run = base; verdict = bv; _ } =
    Redfat.run ~inputs:refs bin Baseline
  in
  let acct = Vm.Cpu.new_acct () in
  let m = Redfat.run ~acct ~inputs:refs hard.binary (Hardened log_opts) in
  let { Redfat.run = mc; verdict = mv; _ } =
    Redfat.run ~inputs:refs bin Memcheck
  in
  [
    line target "baseline" base bv;
    line target "profile" p.run p.verdict;
    line target "merge" m.run m.verdict;
    acct_line target acct;
    line target "memcheck" mc mv;
  ]

(* a spatial +merge sweep's temporal counterpart, on one benchmark *)
let temporal_build name =
  Rw.rewrite { Rw.optimized with backend = CB.Temporal }
    (Workloads.Spec.binary (Workloads.Spec.find name))

let temporal_spec name =
  let b = Workloads.Spec.find name in
  let hard = temporal_build name in
  let acct = Vm.Cpu.new_acct () in
  let r =
    Redfat.run ~acct ~inputs:(Workloads.Spec.ref_inputs b) hard.binary
      (Hardened log_opts)
  in
  Printf.sprintf "%s backend=%s temporal_checks=%d"
    (line ("spec:" ^ name) "temporal" r.run r.verdict)
    (CB.name (Redfat.backend_of_binary hard.binary))
    acct.acct_temporal

let bug_builds () =
  List.concat_map
    (fun (c : Workloads.Fuzzbugs.case) ->
      let bin = Workloads.Fuzzbugs.binary c in
      List.map
        (fun backend -> (c, backend, Rw.rewrite { Rw.optimized with backend } bin))
        CB.all)
    Workloads.Fuzzbugs.all

(* every planted bug's detecting input, under every backend; bug:hang
   runs into the step limit *)
let bugs () =
  List.map
    (fun ((c : Workloads.Fuzzbugs.case), backend, (hard : Rw.t)) ->
      let r =
        Redfat.run ~max_steps:100_000 ~inputs:c.attack hard.binary libredfat
      in
      line ("bug:" ^ c.id) (CB.name backend) r.run r.verdict)
    (bug_builds ())

(* the E9AFL block-probe build of one benchmark: [on_probe] on every
   basic block; the line records the edge map's size and hit total *)
let e9afl name =
  let b = Workloads.Spec.find name in
  let t = Fuzz.E9afl.instrument (Workloads.Spec.binary b) in
  let r = Fuzz.E9afl.run t ~inputs:(Workloads.Spec.train_inputs b) () in
  let hits = Hashtbl.fold (fun _ n acc -> acc + n) r.edges 0 in
  Printf.sprintf "spec:%s e9afl blocks=%d edges=%d hits=%d ok=%b outputs=%s"
    name t.blocks (Hashtbl.length r.edges) hits r.verdict_ok (ints r.outputs)

(* a store right before a jump target cannot take a jump patch, so the
   rewriter falls back to a trap patch *)
let trap_binary () =
  let open X64 in
  let i x = Asm.I x in
  let items =
    [
      i (Isa.Mov_ri (Isa.rdi, 64));
      i (Isa.Callrt Isa.Malloc);
      i (Isa.Mov_rr (Isa.rbx, Isa.rax));
      i (Isa.Mov_ri (Isa.rcx, 0));
      Asm.Label "loop";
      i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rbx (), Isa.rcx));
      Asm.Label "t";
      i (Isa.Load (Isa.W8, Isa.rdi, Isa.mem ~base:Isa.rbx ()));
      i (Isa.Callrt Isa.Print);
      i (Isa.Alu_ri (Isa.Add, Isa.rcx, 1));
      i (Isa.Cmp_ri (Isa.rcx, 5));
      Asm.Jcc_l (Isa.Lt, "loop");
      i Isa.Ret;
      Asm.Jmp_l "t";
    ]
  in
  let code, _ = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  {
    Binfmt.Relf.entry = Lowfat.Layout.code_base;
    pic = false;
    stripped = true;
    sections =
      [
        Binfmt.Relf.section ~executable:true ~name:".text"
          ~addr:Lowfat.Layout.code_base code;
      ];
  }

let trap () =
  let hard = Rw.rewrite Rw.optimized (trap_binary ()) in
  let r = Redfat.run hard.binary libredfat in
  line "asm:trap" (Printf.sprintf "traps=%d" hard.stats.trap_patches) r.run
    r.verdict

let lines () =
  List.concat_map spec Workloads.Spec.all
  @ [ temporal_spec "mcf"; temporal_spec "omnetpp" ]
  @ bugs ()
  @ [ e9afl "bzip2"; trap () ]

(** Every binary the corpus above runs, named. *)
let binaries () =
  List.concat_map
    (fun (b : Workloads.Spec.bench) ->
      let bin, prof, _, hard = spec_builds b in
      [ ("spec:" ^ b.name, bin); ("spec:" ^ b.name ^ " profile", prof.binary);
        ("spec:" ^ b.name ^ " merge", hard.binary) ])
    Workloads.Spec.all
  @ List.map
      (fun name -> ("spec:" ^ name ^ " temporal", (temporal_build name).binary))
      [ "mcf"; "omnetpp" ]
  @ List.map
      (fun ((c : Workloads.Fuzzbugs.case), backend, (hard : Rw.t)) ->
        ("bug:" ^ c.id ^ " " ^ CB.name backend, hard.binary))
      (bug_builds ())
  @ [
      ( "spec:bzip2 e9afl",
        (Fuzz.E9afl.instrument
           (Workloads.Spec.binary (Workloads.Spec.find "bzip2"))).binary );
      ("asm:trap", (Rw.rewrite Rw.optimized (trap_binary ())).binary);
    ]
