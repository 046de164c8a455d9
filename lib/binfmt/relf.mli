(** RELF: the binary container of the simulated toolchain — a
    stripped-down ELF analogue (named sections at fixed virtual
    addresses, an entry point, PIC/stripped flags, no symbols). *)

type section = {
  name : string;
  addr : int;
  bytes : string;
  executable : bool;
  writable : bool;
}

type t = {
  entry : int;
  pic : bool;
  stripped : bool;
  sections : section list;
}

val magic : string

val section :
  ?executable:bool ->
  ?writable:bool ->
  name:string ->
  addr:int ->
  string ->
  section

val find_section : t -> string -> section option

val text_exn : t -> section
(** The [.text] section; raises [Invalid_argument] if absent. *)

val code_size : t -> int
val total_size : t -> int

val serialize : t -> string

val parse : string -> t
(** Raises {!Reader.Error}; a binary without [.text] parses. *)

val load : ?src:string -> string -> t
(** {!parse} behind the one no-code gate: no non-empty [.text] is
    {!Reader.Error} [Nocode]. *)

val save : string -> t -> unit
val load_file : string -> t

val loadable : section -> bool
(** Whether the loader maps the section: every section but the metadata
    at address 0 ([.elimtab], [.traptab]), so page 0 stays unmapped. *)

val load_into : Vm.Mem.t -> t -> unit
(** Map every {!loadable} section into memory (an exec-style loader). *)

val disasm : t -> string
(** Disassembly of the text section. *)
