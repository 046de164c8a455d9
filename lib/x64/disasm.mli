(** Pretty-printing (AT&T-flavoured) and linear-sweep disassembly. *)

val mem_to_string : Isa.mem -> string
val alu_name : Isa.alu -> string
val shift_name : Isa.shift -> string
val cc_name : Isa.cc -> string
val rtfn_name : Isa.rtfn -> string
val width_suffix : Isa.width -> string

val to_string : Isa.instr -> string

val sweep_array : addr:int -> string -> (int * Isa.instr * int) array
(** Linear sweep over a code blob at virtual address [addr]:
    [(address, instruction, length)] triples.  Raises
    {!Decode.Decode_error} at the first undecodable instruction. *)

val sweep : addr:int -> string -> (int * Isa.instr * int) list
(** [sweep_array] as a list. *)

val dump : addr:int -> string -> string
(** Tolerant pretty dump: undecodable bytes become [.byte] lines (for
    patched binaries whose linear sweep desynchronizes). *)
