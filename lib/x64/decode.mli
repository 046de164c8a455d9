(** Binary decoder for x64l; the exact inverse of {!Encode}. *)

exception Decode_error of { addr : int; byte : int }
(** [addr] is the address of the instruction being decoded; [byte] is
    the offending byte, or [-1] when the instruction runs past the end
    of the buffer. *)

val decode : addr:int -> string -> int -> Isa.instr * int
(** [decode ~addr buf off] decodes one instruction whose first byte is
    [buf.[off]] and whose virtual address is [addr]; returns the
    instruction and its encoded length.  Allocates only the result;
    [push], [pop] and register-to-register [mov], and the register
    options of memory operands, are shared values built once. *)
