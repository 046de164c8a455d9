(** RedFat: the public API of the binary-hardening pipeline.

    The lifecycle mirrors the paper's tool exactly:

    {[
      let hard = Redfat.harden binary in
      let hrun =
        Redfat.run ~inputs hard.binary (Hardened Runtime.default_options)
      in
      match hrun.verdict with
      | Detected e -> (* attack stopped *)
      | Finished _ -> ...
    ]}

    The two-phase workflow of Figure 5 (profile, then harden with the
    allow-list) is [Engine.Pipeline.workflow].

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
    {!load} adopts this automatically.  Unhardened (or
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
  im_modules : Binfmt.Relf.t list;  (* the binary, then its libs *)
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
    im_modules = modules;
    im_mem = Vm.Mem.freeze mem;
    im_traps = traps;
    im_code = Array.of_list code;
    im_backend =
      (try Ok (backend_of_binary binary)
       with (Backend.Check_backend.Unknown _ | Binfmt.Reader.Error _) as e ->
         Error e);
  }

let image_binary im = im.im_binary

(* a fresh machine over the image, stack pointer set *)
let instantiate ?(max_steps = 200_000_000) (im : image) : Vm.Cpu.t =
  let cpu =
    Vm.Cpu.create ~max_steps ~mem:(Vm.Mem.instantiate im.im_mem)
      ~code:im.im_code ~trap_table:im.im_traps ()
  in
  cpu.regs.(X64.Isa.rsp) <- Lowfat.Layout.stack_top - 64;
  cpu

(* bench/perf's [vm.prepare_us] probe is its last caller; the benchmark
   change of ROADMAP item 1 removes it *)
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

(* --- the execution environments ------------------------------------- *)

type _ runtime =
  | Baseline : unit runtime
  | Hardened : Runtime.options -> Runtime.t runtime
  | Profiling : Runtime.t runtime
  | Memcheck : Baselines.Memcheck.t runtime

(* libredfat preloaded.  The runtime speaks the backend the binary
   records (see {!backend_of_binary}), whatever [options.backend] says:
   lock-and-key instrumentation needs the tagging allocator, and the
   spatial backends need the untagged one. *)
let libredfat im (cpu : Vm.Cpu.t) options ~profiling =
  let backend = match im.im_backend with Ok b -> b | Error e -> raise e in
  let rt =
    Runtime.create ~options:{ options with Runtime.backend } ~profiling
      cpu.mem
  in
  (cpu, rt, Runtime.install rt cpu)

let load (type s) ?(inputs = []) ?max_steps ?acct (im : image)
    (runtime : s runtime) : Vm.Cpu.t * s * Vm.Cpu.runtime =
  let cpu = instantiate ?max_steps im in
  cpu.acct <- acct;
  cpu.inputs <- inputs;
  match runtime with
  | Baseline ->
    (cpu, (), Baselines.Sysalloc.(vm_runtime (create cpu.mem)))
  | Hardened options -> libredfat im cpu options ~profiling:false
  | Profiling ->
    libredfat im cpu
      { Runtime.default_options with mode = Runtime.Log }
      ~profiling:true
  | Memcheck ->
    let mc = Baselines.Memcheck.create cpu.mem in
    (cpu, mc, Baselines.Memcheck.install mc cpu im.im_modules)

type 's outcome = { run : run_result; verdict : verdict; state : 's }

let run ?inputs ?max_steps ?acct ?libs (binary : Binfmt.Relf.t) runtime =
  let cpu, state, vmrt =
    load ?inputs ?max_steps ?acct (image ?libs binary) runtime
  in
  let run, verdict = exec cpu vmrt ~entry:binary.entry in
  { run; verdict; state }

(* --- hardening ------------------------------------------------------ *)

(** One-phase hardening (no profile): every site gets the full check. *)
let harden ?(opts = Rewrite.optimized) (binary : Binfmt.Relf.t) : Rewrite.t =
  Rewrite.rewrite opts binary
