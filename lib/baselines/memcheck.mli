(** A Valgrind-Memcheck-style comparator: heavyweight DBI with
    byte-granular addressability (A-bit) shadow memory and a
    redzone-wrapping allocator with a free quarantine.  Models Memcheck
    as invoked in the paper's Table 1
    ([--leak-check=no --undef-value-errors=no]). *)

val redzone : int
val dispatch_cost : int
(** Extra cycles charged per guest instruction (the JIT). *)

val access_cost : int
(** Extra cycles charged per guest memory access (the A-bit check). *)

type error = { addr : int; len : int; write : bool; rip : int }

type t

val create : Vm.Mem.t -> t

val malloc : t -> int -> int
val free : t -> int -> unit
val mark : t -> addr:int -> len:int -> accessible:bool -> unit
val accessible : t -> int -> bool

val errors : t -> error list
(** Logged invalid accesses (one per guest instruction, like the real
    tool's deduplication), in discovery order. *)

val install : t -> Vm.Cpu.t -> Binfmt.Relf.t -> Vm.Cpu.runtime
(** For a VM that already holds the binary and a mapped stack (see
    [Redfat.prepare]): mark statics/stack addressable, set the dispatch
    cost and the per-access hook; returns the runtime dispatch table
    for [Cpu.run]. *)
