(** The x64l interpreter with a deterministic cycle cost model.

    Overheads in every experiment are ratios of the [cycles] counter
    between runs; the model charges every piece of work the
    instrumentation introduces (trampoline jumps, check micro-ops, DBI
    dispatch, trap-table redirects) a defensible relative cost. *)

exception Halt

(** Carries the rip of the faulting division. *)
exception Div_by_zero of int

exception Invalid_opcode of int

(** Carries the steps executed when the limit was hit. *)
exception Timeout of int

(** Explicit Exit runtime call, carrying the exit code. *)
exception Exited of int

(** Lazy flags: [Cmp a b] records the operand pair; condition codes are
    evaluated from it on demand. *)
type flags = { mutable fa : int; mutable fb : int }

(** Per-hardened-site check accounting (off unless an [acct] is
    attached to the CPU): how often each guarded site's check executes
    and what it costs, plus per-variant and total-cycle tallies.  The
    measurement substrate for overhead {e attribution} — Table 1 says
    how much hardening costs, this says {e where}. *)
type site_acct = { mutable sa_checks : int; mutable sa_cycles : int }

type acct = {
  acct_sites : (int, site_acct) Hashtbl.t;  (** ck_site -> totals *)
  mutable acct_full : int;     (** Full-variant checks executed *)
  mutable acct_redzone : int;  (** Redzone-variant checks executed *)
  mutable acct_temporal : int; (** Temporal-variant checks executed *)
  mutable acct_cycles : int;   (** total cycles spent in checks *)
}

val new_acct : unit -> acct

val acct_sites : acct -> (int * int * int) list
(** [(site, checks, cycles)] per guarded site, sorted by site. *)

(** A predecoded executable section, built once per binary and shared
    read-only by every CPU that runs it. *)
type region = private {
  r_base : int;  (** address of the section's first byte *)
  r_instrs : (X64.Isa.instr * int) array;
      (** [r_instrs.(a - r_base)]: the instruction at [a] and its
          length, or length 0 where the sweep started none *)
}

val predecode : Mem.t -> addr:int -> len:int -> region
(** A linear sweep over [addr, addr+len) that decodes each instruction
    from [mem] exactly as the fetcher does ({!Mem.read_string} of 40
    bytes, then {!X64.Decode.decode}), steps over it, and skips a byte
    that does not decode. *)

type t = {
  mem : Mem.t;
  regs : int array;                   (** 16 general-purpose registers *)
  mutable rip : int;
  flags : flags;
  mutable cycles : int;               (** the cost-model counter *)
  mutable steps : int;                (** instructions executed *)
  mutable max_steps : int;
  mutable on_check : (t -> X64.Isa.check -> int) option;
      (** instrumentation hook: returns the cycle cost to charge *)
  mutable on_probe : (t -> int -> int) option;
      (** generic-instrumentation hook (E9Tool payloads) *)
  mutable on_mem : (t -> addr:int -> len:int -> write:bool -> unit) option;
      (** DBI hook, called on every explicit memory access *)
  mutable dispatch_cost : int;        (** extra cycles per instruction *)
  mutable acct : acct option;         (** per-site check accounting *)
  mutable addr_mask : int;
      (** mask applied to data effective addresses before memory
          access; [-1] (identity) unless a pointer-tagging backend
          (temporal lock-and-key) installs one.  [Lea] is exempt: it
          computes pointer {e values}, which must keep their tags *)
  trap_table : (int, int) Hashtbl.t;  (** patch address -> trampoline *)
  code : region array;
      (** predecoded sections: a decode-cache miss looks here before
          [icache]; an entry is never invalidated, so code that runs
          from here must not be written *)
  icache : (int, X64.Isa.instr * int) Hashtbl.t;
      (** every decoded instruction, by address; never invalidated *)
  dcache_tag : int array;
  dcache : (X64.Isa.instr * int) array;
      (** direct-mapped decode cache in front of [icache]: slot
          [addr land 255] holds the instruction at [addr] when its tag
          is [addr] *)
  mutable inputs : int list;          (** script for the Input runtime fn *)
  mutable outputs : int list;         (** Print results, reverse order *)
  mutable mem_reads : int;
  mutable mem_writes : int;
}

val create :
  ?max_steps:int -> ?mem:Mem.t -> ?code:region array ->
  ?trap_table:(int, int) Hashtbl.t -> unit -> t
(** A CPU over [mem] (default: a fresh empty {!Mem.t}) with the
    predecoded [code] (default none) and the [trap_table] (default a
    fresh empty one).  The CPU only reads [code] and [trap_table], so
    CPUs on several domains may share them. *)

val outputs : t -> int list
(** Printed values, in program order. *)

val ea : t -> X64.Isa.mem -> int
(** Effective address of a memory operand under the current registers. *)

(** The runtime library the [Callrt] instruction dispatches into
    (glibc, libredfat, or the Memcheck wrappers). *)
type runtime = {
  rt_malloc : t -> int -> int;
  rt_free : t -> int -> unit;
  rt_name : string;
}

val step : t -> runtime -> unit
(** Execute one instruction; raises {!Halt} on hlt or final ret. *)

val enter : t -> entry:int -> unit
(** Start the program at [entry]: set [rip] and push the return
    address whose pop halts the machine.  {!run} begins with it; a
    stepper that drives {!step} itself calls it first. *)

val run : t -> runtime -> entry:int -> int
(** Run from [entry] until the program halts; returns the exit code
    (0 unless the program called Exit). *)
