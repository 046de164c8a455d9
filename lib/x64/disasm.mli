(** Pretty-printing (AT&T-flavoured) and linear-sweep disassembly. *)

val mem_to_string : Isa.mem -> string
val alu_name : Isa.alu -> string
val shift_name : Isa.shift -> string
val cc_name : Isa.cc -> string
val rtfn_name : Isa.rtfn -> string
val width_suffix : Isa.width -> string

val to_string : Isa.instr -> string

type stream = {
  addrs : int array;  (** address of each instruction *)
  instrs : Isa.instr array;
  lens : int array;  (** encoded length of each instruction *)
}
(** A decoded instruction stream as three parallel arrays, one entry
    per instruction in address order. *)

val sweep_stream : addr:int -> string -> stream
(** Linear sweep over a code blob at virtual address [addr].  Raises
    {!Decode.Decode_error} at the first undecodable instruction. *)

val length : stream -> int
(** Number of instructions. *)

val sweep : addr:int -> string -> (int * Isa.instr * int) list
(** [sweep_stream] as a list of (address, instruction, length)
    triples. *)

val dump : addr:int -> string -> string
(** Tolerant pretty dump: undecodable bytes become [.byte] lines (for
    patched binaries whose linear sweep desynchronizes). *)
