(** RedFat: the public API of the binary-hardening pipeline.

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
    model, so overheads are [cycles_hardened / cycles_baseline]. *)

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
  | Finished of int                   (** exit code *)
  | Detected of Runtime.access_error  (** the hardening aborted it *)
  | Fault of string                   (** segfault / trap / timeout *)

val verdict_to_string : verdict -> string

val backend_of_binary : Binfmt.Relf.t -> Backend.Check_backend.id
(** The check backend recorded in the binary's [.elimtab] policy line;
    {!Backend.Check_backend.default} for unhardened or pre-backend
    binaries.  Raises {!Backend.Check_backend.Unknown} when the
    recorded name matches no shipped backend (the engine maps this to
    the [run.backend] fault), and {!Binfmt.Reader.Error} when the
    [.elimtab] is malformed ([parse.*]). *)

(** {2 Images: VM set-up done once per binary}

    A run of a binary starts from its image: the template memory with
    every loadable section written and the stack mapped, the trap
    table from every module's [.traptab], the backend the binary
    records, and its executable sections predecoded.  Instantiating
    the image gives a fresh machine that shares the template's pages
    copy-on-write ({!Vm.Mem.instantiate}), so a run costs only the
    pages it writes.  An image is frozen once built and may be shared
    by runs on several domains. *)

type image

val image : ?libs:Binfmt.Relf.t list -> Binfmt.Relf.t -> image
(** Load the binary and any shared objects into a new image. *)

val image_binary : image -> Binfmt.Relf.t
(** The binary the image was built from (its entry, say). *)

val prepare : ?max_steps:int -> ?libs:Binfmt.Relf.t list -> Binfmt.Relf.t ->
  Vm.Cpu.t
(** A fresh machine over the binary's {!image}, stack pointer set, no
    runtime attached.  Only bench/perf's [vm.prepare_us] probe calls
    it; the benchmark change of ROADMAP item 1 removes that caller and
    then this value. *)

val verdict_of_exn : exn -> (int * verdict) option
(** How a run that raised this exception ended, with its exit code:
    the one verdict path, shared by {!exec} and the [redfat trace]
    stepper.  The exit code follows the shell convention: 134 for a
    detection or an allocator abort (invalid or double free), 124 for
    a timeout, 139/136/132 for a segfault, a division by zero and an
    invalid opcode.  [None] for an exception that is no ending of a
    run (a decoder error, say). *)

val exec : Vm.Cpu.t -> Vm.Cpu.runtime -> entry:int -> run_result * verdict
(** Run a loaded VM from [entry] and classify how the run ended with
    {!verdict_of_exn}; any other exception escapes. *)

(** {2 Runtimes: what a run executes under}

    The paper's three environments, plus the profiling run of Figure 5.
    The type parameter is the state a run leaves behind, so a hardened
    run's caller gets its {!Runtime.t} with no option to unwrap. *)

type _ runtime =
  | Baseline : unit runtime
      (** the original binary natively: glibc allocator, no checks *)
  | Hardened : Runtime.options -> Runtime.t runtime
      (** libredfat preloaded.  The runtime's backend is the one the
          binary records ({!backend_of_binary}), overriding
          [options.backend]: hardened binaries are self-describing,
          and its exceptions are raised by {!load}.  [options.random]
          seeds heap randomization. *)
  | Profiling : Runtime.t runtime
      (** the profiling run of Figure 5, for a binary built with
          [Rewrite.profiling_build]: libredfat in [Log] mode with site
          statistics, so a failed check is recorded and the run
          continues *)
  | Memcheck : Baselines.Memcheck.t runtime
      (** the simulated Valgrind Memcheck; every module of the image
          is addressable *)

val load :
  ?inputs:int list ->
  ?max_steps:int ->
  ?acct:Vm.Cpu.acct ->
  image ->
  's runtime ->
  Vm.Cpu.t * 's * Vm.Cpu.runtime
(** A fresh machine over the image under the runtime: the CPU, the
    runtime's state and its VM hooks, ready for {!exec} from the
    binary's entry.  [acct] attaches per-site check accounting to the
    VM ({!Vm.Cpu.acct}): cycle and execution-count attribution per
    guarded site, for trace exports.  The VM shares the image's trap
    table and predecoded code: writing [cpu.trap_table] would change
    every instance. *)

type 's outcome = {
  run : run_result;
  verdict : verdict;
  state : 's;  (** e.g. a {!Runtime.t}: errors, coverage, ... *)
}

val run :
  ?inputs:int list ->
  ?max_steps:int ->
  ?acct:Vm.Cpu.acct ->
  ?libs:Binfmt.Relf.t list ->
  Binfmt.Relf.t ->
  's runtime ->
  's outcome
(** {!load} the {!image} of the binary (with its shared objects
    [libs]), then {!exec} it from its entry: for a binary run once. *)

val harden : ?opts:Rewrite.options -> Binfmt.Relf.t -> Rewrite.t
(** One-phase hardening: every site gets the full check. *)
