(** The patch layer: the E9Patch core every client of this rewriter
    shares.

    A client picks the instructions to patch and supplies each
    trampoline's payload; this module owns the rest:
    - the tactic decision ({!decide}): a 5-byte [jmp rel32] when the
      patched instruction, alone or with evicted successors, spans
      5 bytes (E9Patch tactics T1/T3), else the 1-byte trap fallback;
    - the trampoline unit ({!trampoline}): payload, displaced run,
      back-jump;
    - the text patch ({!patch}): [jmp rel32] plus NOP padding, or a
      trap byte plus a trap-table entry;
    - the [.traptab] codec ({!assemble} renders, {!parse_traps} parses);
    - section assembly ({!assemble}).

    Clients: {!Rewrite} (check payloads in [.redfat]), {!Shard}
    (reassembles per-slice rewrites) and [Fuzz.E9afl] (probe payloads
    in [.e9tool]). *)

type tactic = Jump | Trap

val decide :
  Dataflow.Graph.t -> is_start:(int -> bool) -> int -> tactic * int list
(** [decide g ~is_start i]: the tactic for patching instruction [i]
    and the indices its trampoline displaces ([i], then any evicted
    successors, ascending).  A successor may be evicted only if it
    starts no basic block of [g], falls through, and is not itself a
    patch start ([is_start]).  Depends only on lengths, leaders and
    patch starts, so a decision is a property of the text's shape. *)

type t
(** One patch session over a text section: the patched text, the
    trampoline buffer, the trap entries and per-tactic counts. *)

val create : tramp_base:int -> Binfmt.Relf.section -> X64.Disasm.stream -> t
(** A session over a text section and its swept instruction stream,
    laying trampolines out from [tramp_base]. *)

val trampoline : t -> payload:X64.Isa.instr list -> displaced:int list -> int
(** Append one trampoline unit: [payload], the displaced run
    re-encoded at its new address, and a jump back to the instruction
    after the run.  Returns the unit's address.  If encoding raises,
    the buffer is restored before the exception propagates. *)

val patch : t -> tactic -> displaced:int list -> tramp:int -> unit
(** Redirect the run [displaced] to the trampoline at [tramp]: a
    [Jump] writes [jmp rel32] and NOP-pads the rest of the run, a
    [Trap] writes the trap byte and records a trap entry. *)

val jump_patches : t -> int
val trap_patches : t -> int

val evictions : t -> int
(** Successors displaced by jump patches. *)

val traps : t -> (int * int) list
(** Patch address -> trampoline address, in patch order. *)

val tramp_bytes : t -> string

val finish :
  t -> name:string -> ?extra:Binfmt.Relf.section list -> Binfmt.Relf.t ->
  Binfmt.Relf.t
(** {!assemble} the session's patched text, trampolines and traps. *)

val assemble :
  Binfmt.Relf.t ->
  text:string ->
  name:string ->
  tramp_base:int ->
  tramp:string ->
  ?extra:Binfmt.Relf.section list ->
  (int * int) list ->
  Binfmt.Relf.t
(** [binary] with [.text] replaced by [text], then the executable
    trampoline section [name] at [tramp_base], the [extra] sections,
    and a [.traptab] section when the trap list is non-empty. *)

val parse_traps : string -> (int * int) list
(** Parse a [.traptab] section, one ["%x %x\n"] line (patch address,
    trampoline address) per entry, as {!assemble} renders it.  Raises
    {!Binfmt.Reader.Error} on any malformed line: [Int] for a field
    that is not a hex [int], [Section] for any other line, an empty
    one included. *)

val traps_of_binary : Binfmt.Relf.t -> (int * int) list
(** The trap table of a patched binary's [.traptab] section (empty
    when absent); raises as {!parse_traps}. *)
