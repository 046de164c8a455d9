(** RedFat: the public API of the binary-hardening pipeline.

    The lifecycle mirrors the paper's tool exactly:

    {[
      let hard = Redfat.harden binary in                    (* one-phase *)
      let hard = Redfat.profile_and_harden ~train binary in (* two-phase *)
      let hrun = Redfat.run_hardened hard.binary ~inputs in
      match hrun.verdict with
      | Detected e -> (* attack stopped *)
      | Finished _ -> ...
    ]}

    Every run returns deterministic cycle counts from the VM cost
    model, so overheads are computed as [cycles_hardened /
    cycles_baseline]. *)

module Rewrite = Rewriter.Rewrite
module Shard = Rewriter.Shard
module Runtime = Redfat_rt.Runtime
module Allowlist = Profile.Allowlist
module Verify = Dataflow.Verify

type run_result = {
  exit_code : int;
  outputs : int list;
  cycles : int;
  steps : int;
  mem_reads : int;
  mem_writes : int;
}

(** How a run ended. *)
type verdict =
  | Finished of int                       (** exit code *)
  | Detected of Runtime.access_error      (** the hardening aborted it *)
  | Fault of string                       (** segfault / trap / timeout *)

let verdict_to_string = function
  | Finished c -> Printf.sprintf "finished (exit %d)" c
  | Detected e ->
    Printf.sprintf "DETECTED %s at site %#x (addr %#x)"
      (Runtime.kind_name e.kind) e.site e.addr
  | Fault m -> Printf.sprintf "fault: %s" m

(* --- common VM setup ------------------------------------------------ *)

(** The check backend recorded in a hardened binary's [.elimtab]
    policy line.  Hardened binaries are self-describing: the runtime
    must speak the same backend as the instrumentation, so
    {!load_image} adopts this automatically.  Unhardened (or
    pre-backend) binaries report {!Backend.Check_backend.default};
    a recorded name that matches no shipped backend raises
    {!Backend.Check_backend.Unknown}, and a malformed [.elimtab]
    raises {!Binfmt.Reader.Error}. *)
let backend_of_binary (binary : Binfmt.Relf.t) : Backend.Check_backend.id =
  match Binfmt.Relf.find_section binary Dataflow.Elimtab.section_name with
  | None -> Backend.Check_backend.default
  | Some s ->
    Backend.Check_backend.of_name_exn (Dataflow.Elimtab.parse s.bytes).backend

(* The set-up work done once per binary.  Frozen once built: every
   field is only read afterwards, so instances on several domains share
   one image. *)
type image = {
  im_binary : Binfmt.Relf.t;
  im_mem : Vm.Mem.template;  (* loadable sections written, stack mapped *)
  im_traps : (int, int) Hashtbl.t;
  im_code : Vm.Cpu.region array;
  im_backend : (Backend.Check_backend.id, exn) result;
      (* raised when a hardened run needs it, not when a baseline run
         of a binary with a malformed [.elimtab] does not *)
}

let image ?(libs = []) (binary : Binfmt.Relf.t) : image =
  let mem = Vm.Mem.create () in
  let traps = Hashtbl.create 64 in
  (* shared objects: additional modules mapped into the same process,
     each bringing the trap-table entries of its own patches *)
  let modules = binary :: libs in
  List.iter
    (fun b ->
      Binfmt.Relf.load_into mem b;
      List.iter
        (fun (a, t) -> Hashtbl.replace traps a t)
        (Rewriter.Patch.traps_of_binary b))
    modules;
  Vm.Mem.map mem ~addr:Lowfat.Layout.stack_lo ~len:Lowfat.Layout.stack_size;
  let code =
    List.concat_map
      (fun (b : Binfmt.Relf.t) ->
        List.filter_map
          (fun (s : Binfmt.Relf.section) ->
            if s.executable && Binfmt.Relf.loadable s then
              Some
                (Vm.Cpu.predecode mem ~addr:s.addr
                   ~len:(String.length s.bytes))
            else None)
          b.sections)
      modules
  in
  {
    im_binary = binary;
    im_mem = Vm.Mem.freeze mem;
    im_traps = traps;
    im_code = Array.of_list code;
    im_backend =
      (try Ok (backend_of_binary binary)
       with (Backend.Check_backend.Unknown _ | Binfmt.Reader.Error _) as e ->
         Error e);
  }

let image_binary im = im.im_binary

let instantiate ?(max_steps = 200_000_000) (im : image) : Vm.Cpu.t =
  let cpu =
    Vm.Cpu.create ~max_steps ~mem:(Vm.Mem.instantiate im.im_mem)
      ~code:im.im_code ~trap_table:im.im_traps ()
  in
  cpu.regs.(X64.Isa.rsp) <- Lowfat.Layout.stack_top - 64;
  cpu

let prepare ?max_steps ?libs (binary : Binfmt.Relf.t) : Vm.Cpu.t =
  instantiate ?max_steps (image ?libs binary)

let collect (cpu : Vm.Cpu.t) exit_code : run_result =
  {
    exit_code;
    outputs = Vm.Cpu.outputs cpu;
    cycles = cpu.cycles;
    steps = cpu.steps;
    mem_reads = cpu.mem_reads;
    mem_writes = cpu.mem_writes;
  }

let verdict_of_exn = function
  | Runtime.Memory_error e -> Some (134, Detected e)
  | Vm.Mem.Segfault a -> Some (139, Fault (Printf.sprintf "segfault at %#x" a))
  | Vm.Cpu.Div_by_zero a ->
    Some (136, Fault (Printf.sprintf "division by zero at %#x" a))
  | Vm.Cpu.Invalid_opcode a ->
    Some (132, Fault (Printf.sprintf "invalid opcode at %#x" a))
  | Vm.Cpu.Timeout n ->
    Some (124, Fault (Printf.sprintf "timeout after %d steps" n))
  | Runtime.Bad_free p | Lowfat.Alloc.Invalid_free p ->
    Some (134, Fault (Printf.sprintf "invalid free of %#x" p))
  | Lowfat.Alloc.Double_free p ->
    Some (134, Fault (Printf.sprintf "double free of %#x" p))
  | _ -> None

let exec (cpu : Vm.Cpu.t) rt ~entry : run_result * verdict =
  match Vm.Cpu.run cpu rt ~entry with
  | code -> (collect cpu code, Finished code)
  | exception e -> (
    let bt = Printexc.get_raw_backtrace () in
    match verdict_of_exn e with
    | Some (code, v) -> (collect cpu code, v)
    | None -> Printexc.raise_with_backtrace e bt)

(* --- the three execution environments ------------------------------- *)

(** Run the original binary natively (glibc allocator, no checks). *)
let run_baseline ?(inputs = []) ?max_steps ?libs (binary : Binfmt.Relf.t) :
    run_result * verdict =
  let cpu = prepare ?max_steps ?libs binary in
  cpu.inputs <- inputs;
  let alloc = Baselines.Sysalloc.create cpu.mem in
  exec cpu (Baselines.Sysalloc.vm_runtime alloc) ~entry:binary.entry

type hardened_run = {
  run : run_result;
  verdict : verdict;
  rt : Runtime.t;  (** allocator/check state: errors, coverage, ... *)
}

(** Instantiate a hardened binary's image with libredfat preloaded,
    ready for {!exec}.  [acct] attaches per-site check accounting to
    the VM (overhead attribution).  The runtime's backend is adopted
    from the binary's own [.elimtab] record (see {!backend_of_binary}),
    overriding [options.backend]: lock-and-key instrumentation needs
    the tagging allocator, and the spatial backends need the untagged
    one. *)
let load_image ?(options = Runtime.default_options) ?(profiling = false)
    ?random ?acct ?(inputs = []) ?max_steps (im : image) =
  let backend = match im.im_backend with Ok b -> b | Error e -> raise e in
  let options = { options with Runtime.backend } in
  let cpu = instantiate ?max_steps im in
  cpu.acct <- acct;
  cpu.inputs <- inputs;
  let rt = Runtime.create ~options ~profiling ?random cpu.mem in
  (cpu, rt, Runtime.install rt cpu)

let load_hardened ?options ?profiling ?random ?acct ?inputs ?max_steps ?libs
    (binary : Binfmt.Relf.t) =
  load_image ?options ?profiling ?random ?acct ?inputs ?max_steps
    (image ?libs binary)

let run_image ?options ?profiling ?random ?acct ?inputs ?max_steps
    (im : image) : hardened_run =
  let cpu, rt, vmrt =
    load_image ?options ?profiling ?random ?acct ?inputs ?max_steps im
  in
  let run, verdict = exec cpu vmrt ~entry:im.im_binary.entry in
  { run; verdict; rt }

let run_hardened ?options ?profiling ?random ?acct ?inputs ?max_steps ?libs
    (binary : Binfmt.Relf.t) : hardened_run =
  run_image ?options ?profiling ?random ?acct ?inputs ?max_steps
    (image ?libs binary)

(** Run the original binary under the simulated Valgrind Memcheck. *)
let run_memcheck ?(inputs = []) ?max_steps (binary : Binfmt.Relf.t) :
    run_result * verdict * Baselines.Memcheck.t =
  let cpu = prepare ?max_steps binary in
  cpu.inputs <- inputs;
  let mc = Baselines.Memcheck.create cpu.mem in
  let rt = Baselines.Memcheck.install mc cpu binary in
  let run, verdict = exec cpu rt ~entry:binary.entry in
  (run, verdict, mc)

(* --- hardening ------------------------------------------------------ *)

(** One-phase hardening (no profile): every site gets the full check. *)
let harden ?(opts = Rewrite.optimized) (binary : Binfmt.Relf.t) : Rewrite.t =
  Rewrite.rewrite opts binary

(** One profiling-phase run: execute the image of an (already
    profiling-instrumented) binary on one input script; return the sites that
    passed and the sites that failed the (LowFat) component.  Pure
    per-run — [merge_profiles] combines any number of them, so a suite
    can be run sequentially or fanned out across domains. *)
let profile_run ?max_steps (prof : image) (inputs : int list) :
    Allowlist.t * int list =
  let hr =
    run_image ?max_steps
      ~options:{ Runtime.default_options with mode = Runtime.Log }
      ~profiling:true ~inputs prof
  in
  (Runtime.allowlist hr.rt, Runtime.lowfat_failing_sites hr.rt)

(** Combine per-run profiles: a site makes the allow-list when it
    executed in some run and never failed the (LowFat) component in
    any run. *)
let merge_profiles (runs : (Allowlist.t * int list) list) : Allowlist.t =
  let failed = Hashtbl.create 64 in
  List.iter
    (fun (_, fs) -> List.iter (fun s -> Hashtbl.replace failed s ()) fs)
    runs;
  List.concat_map fst runs
  |> List.sort_uniq compare
  |> List.filter (fun s -> not (Hashtbl.mem failed s))

(** Profiling phase of Figure 5: instrument with the profiling variant,
    run the test suite, extract the allow-list. *)
let profile ?max_steps ~(test_suite : int list list) (binary : Binfmt.Relf.t)
    : Allowlist.t =
  let prof = Rewrite.rewrite Rewrite.profiling_build binary in
  let im = image prof.binary in
  merge_profiles (List.map (profile_run ?max_steps im) test_suite)

(** The full two-phase workflow of Figure 5. *)
let profile_and_harden ?max_steps ~(test_suite : int list list)
    ?(opts = Rewrite.optimized) (binary : Binfmt.Relf.t) : Rewrite.t =
  let allowlist = profile ?max_steps ~test_suite binary in
  Rewrite.rewrite { opts with allowlist = Some allowlist } binary
