(** RedFat: the public API of the binary-hardening pipeline.

    {[
      let hard = Redfat.harden binary in                    (* one-phase *)
      let hard = Redfat.profile_and_harden ~test_suite binary in (* two-phase *)
      let hrun = Redfat.run_hardened hard.binary ~inputs in
      match hrun.verdict with
      | Detected e -> (* attack stopped *)
      | Finished _ -> ...
    ]}

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

val instantiate : ?max_steps:int -> image -> Vm.Cpu.t
(** A fresh VM over the image, stack pointer set; does not run it.
    The VM shares the image's trap table and predecoded code: writing
    [cpu.trap_table] would change every instance. *)

val prepare : ?max_steps:int -> ?libs:Binfmt.Relf.t list -> Binfmt.Relf.t ->
  Vm.Cpu.t
(** {!instantiate} the {!image} of the binary: the one-shot VM set-up
    path, for a binary run once. *)

val verdict_of_exn : exn -> (int * verdict) option
(** How a run that raised this exception ended, with its exit code:
    the one verdict path, shared by {!exec} and the [redfat trace]
    stepper.  The exit code follows the shell convention: 134 for a
    detection or an allocator abort (invalid or double free), 124 for
    a timeout, 139/136/132 for a segfault, a division by zero and an
    invalid opcode.  [None] for an exception that is no ending of a
    run (a decoder error, say). *)

val exec : Vm.Cpu.t -> Vm.Cpu.runtime -> entry:int -> run_result * verdict
(** Run a prepared VM from [entry] and classify how the run ended with
    {!verdict_of_exn}; any other exception escapes. *)

val run_baseline :
  ?inputs:int list ->
  ?max_steps:int ->
  ?libs:Binfmt.Relf.t list ->
  Binfmt.Relf.t ->
  run_result * verdict
(** Run the original binary natively (glibc allocator, no checks). *)

type hardened_run = {
  run : run_result;
  verdict : verdict;
  rt : Runtime.t;  (** allocator/check state: errors, coverage, ... *)
}

val load_image :
  ?options:Runtime.options ->
  ?profiling:bool ->
  ?random:int ->
  ?acct:Vm.Cpu.acct ->
  ?inputs:int list ->
  ?max_steps:int ->
  image ->
  Vm.Cpu.t * Runtime.t * Vm.Cpu.runtime
(** {!instantiate} the image of a (hardened) binary with libredfat
    preloaded: the CPU, the runtime and its VM hooks, ready for
    {!exec}.  [random] seeds heap randomization.  [acct] attaches
    per-site check accounting to the VM ({!Vm.Cpu.acct}): cycle and
    execution-count attribution per guarded site, for trace exports.
    The runtime backend in [options] is overridden by the binary's own
    recorded backend ({!backend_of_binary}) — hardened binaries are
    self-describing; its exceptions are raised here. *)

val load_hardened :
  ?options:Runtime.options ->
  ?profiling:bool ->
  ?random:int ->
  ?acct:Vm.Cpu.acct ->
  ?inputs:int list ->
  ?max_steps:int ->
  ?libs:Binfmt.Relf.t list ->
  Binfmt.Relf.t ->
  Vm.Cpu.t * Runtime.t * Vm.Cpu.runtime
(** {!load_image} of the binary's {!image}, for a binary run once. *)

val run_image :
  ?options:Runtime.options ->
  ?profiling:bool ->
  ?random:int ->
  ?acct:Vm.Cpu.acct ->
  ?inputs:int list ->
  ?max_steps:int ->
  image ->
  hardened_run
(** {!load_image}, then {!exec} from the binary's entry. *)

val run_hardened :
  ?options:Runtime.options ->
  ?profiling:bool ->
  ?random:int ->
  ?acct:Vm.Cpu.acct ->
  ?inputs:int list ->
  ?max_steps:int ->
  ?libs:Binfmt.Relf.t list ->
  Binfmt.Relf.t ->
  hardened_run
(** {!run_image} of the binary's {!image}. *)

val run_memcheck :
  ?inputs:int list ->
  ?max_steps:int ->
  Binfmt.Relf.t ->
  run_result * verdict * Baselines.Memcheck.t
(** Run the original binary under the simulated Valgrind Memcheck. *)

val harden : ?opts:Rewrite.options -> Binfmt.Relf.t -> Rewrite.t
(** One-phase hardening: every site gets the full check. *)

val profile_run :
  ?max_steps:int -> image -> int list -> Allowlist.t * int list
(** [profile_run (image prof_binary) inputs]: one profiling-phase run
    of an already profiling-instrumented binary; returns (passing sites,
    (LowFat)-failing sites).  Pure per-run, so a test suite can be run
    sequentially or fanned out across domains and combined with
    [merge_profiles]. *)

val merge_profiles : (Allowlist.t * int list) list -> Allowlist.t
(** Combine per-run profiles: a site makes the allow-list when it
    executed in some run and never failed the (LowFat) component in
    any run. *)

val profile :
  ?max_steps:int -> test_suite:int list list -> Binfmt.Relf.t -> Allowlist.t
(** Profiling phase of Figure 5: run the instrumented binary against
    the test suite; [merge_profiles] of one [profile_run] per suite
    entry. *)

val profile_and_harden :
  ?max_steps:int ->
  test_suite:int list list ->
  ?opts:Rewrite.options ->
  Binfmt.Relf.t ->
  Rewrite.t
(** The full two-phase workflow of Figure 5. *)
