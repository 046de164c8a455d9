(** The libredfat.so runtime: the redzone-wrapping allocator (paper
    Figure 3) and the complementary (Redzone)+(LowFat) check
    (Figure 4).  Plugs into the VM as the [Callrt] dispatch table and
    the [on_check] hook. *)

val redzone : int
(** Redzone size prepended to every object (16 bytes). *)

type error_kind =
  | Use_after_free
  | Oob_lower
  | Oob_upper
  | Corrupt_meta
  | Key_mismatch
      (** temporal backend: the pointer's tag key does not match the
          slot's live lock (a stale pointer into reallocated memory) *)
  | Double_free
      (** temporal backend: free of a pointer whose key was already
          invalidated *)

type access_error = {
  site : int;  (** address of the guarded instruction *)
  kind : error_kind;
  addr : int;  (** lower bound of the offending access *)
}

exception Memory_error of access_error
exception Bad_free of int

val kind_name : error_kind -> string

(** [Harden] aborts on the first error (production); [Log] records
    unique (site, kind) pairs and continues (bug finding / profiling). *)
type mode = Harden | Log

(** How the redzone component implements state(ptr) (paper §4.1):
    [Lowfat_meta] stores state/size inside the redzone, reusing the
    low-fat [base] computation (RedFat's design); [Asan_shadow] is the
    AddressSanitizer-style separate shadow map, kept as an ablation. *)
type state_impl = Lowfat_meta | Asan_shadow

type options = {
  lowfat : bool;       (** the (LowFat) component; off = redzone-only *)
  size_harden : bool;  (** metadata hardening (Figure 4 lines 23-24) *)
  merged_ub : bool;    (** single-branch bounds via uint32 underflow *)
  check_reads : bool;  (** instrument reads (-reads disables) *)
  state_impl : state_impl;
  mode : mode;
  backend : Backend.Check_backend.id;
      (** which backend's runtime semantics to provide; [Temporal]
          switches the allocator to lock-and-key mode (tagged pointers,
          lock table, key validation on free) *)
  random : int option;  (** heap randomization seed (paper §8) *)
}

val default_options : options

type profile_entry = { mutable executed : int; mutable lowfat_failed : int }

type t = {
  alloc : Lowfat.Alloc.t;
  mem : Vm.Mem.t;
  opts : options;
  mutable errors : access_error list;
  seen : (int * error_kind, unit) Hashtbl.t;
  profile : (int, profile_entry) Hashtbl.t option;
  mutable full_checks : int;
  mutable redzone_checks : int;
  mutable temporal_checks : int;
  mutable nonfat_skips : int;
  shadow : Shadow.t;
  locks : (int, int) Hashtbl.t;
      (** temporal: live key per slot base; 0 = freed *)
  mutable next_key : int;
}

val create : ?options:options -> ?profiling:bool -> Vm.Mem.t -> t

val errors : t -> access_error list
(** Unique logged errors, in discovery order. *)

val malloc : t -> int -> int
(** The wrapper of Figure 3: [malloc(SIZE) = lowfat_malloc(SIZE+16)+16],
    with the state/size metadata word written inside the redzone. *)

val free : ?site:int -> t -> int -> unit
(** Marks the metadata word Free (0) and releases the slot.  Raises
    {!Bad_free} on double/invalid free; [free 0] is a no-op.  Under the
    [Temporal] backend, validates and invalidates the pointer's key
    instead; a dead or mismatched key is a [Double_free] error reported
    through the mode machinery (attributed to [site], the caller's code
    address), so [Log] mode records it and skips the free. *)

(** Structural micro-op costs of the check's assembly (the VM charges
    these per executed check).  Now an alias of the backend layer's
    static cost model, which adds the temporal constants
    ([lock_lookup], [key_check]). *)
module Cost = Backend.Check_backend.Cost

val judge :
  meta_size:int ->
  lf_size:int ->
  size_harden:bool ->
  base:int ->
  lb:int ->
  ub:int ->
  error_kind option
(** The bounds verdict for object [base] and access [lb, ub);
    [meta_size < 0] encodes unmapped metadata. *)

val check : t -> Vm.Cpu.t -> X64.Isa.check -> int
(** Execute the Figure 4 check for a trampoline payload; returns the
    cycle cost of the executed path.  Raises {!Memory_error} in
    [Harden] mode; records and continues in [Log] mode. *)

val vm_runtime : t -> Vm.Cpu.runtime
val install : t -> Vm.Cpu.t -> Vm.Cpu.runtime
(** Set the [on_check] hook and return the runtime dispatch table. *)

val allowlist : t -> int list
(** After a profiling run: sites that executed and never failed the
    (LowFat) component (paper §5). *)

val lowfat_failing_sites : t -> int list
(** Sites that failed the (LowFat) component at least once: the
    would-be false positives (paper §7.1). *)

val explain : t -> access_error -> string
(** Human-readable diagnosis: the object involved, its bounds, and how
    far outside them the access fell. *)

val coverage_percent : t -> float
(** Table 1's coverage: the percentage of dynamically-reached heap
    accesses covered by the backend's primary check (the full
    (Redzone)+(LowFat) check, or the lock-and-key check under the
    temporal backend) rather than the redzone-only fallback. *)
