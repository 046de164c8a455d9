(** Sparse paged memory over a simulated 64-bit virtual address space.

    Pages are 4 KiB.  {!map} records page ranges, and a mapped page is
    materialized (zero-filled) on first touch; accessing an unmapped
    page raises {!Segfault}, like the MMU would.  Addresses are OCaml
    [int]s (the simulated layout tops out at a few TiB). *)

exception Segfault of int
(** Raised with the faulting address on access to an unmapped page.
    Multi-byte accesses fault on their first unmapped byte. *)

val page_bits : int
val page_size : int

type t

val create : unit -> t

(** {2 Copy-on-write instantiation}

    A template is a frozen address space (a loaded binary, say) that
    any number of machines start from, on any domain.  An instance
    shares the template's pages read-only and copies a page on its
    first write to it, so no write through any instance reaches the
    template or another instance. *)

type template

val freeze : t -> template
(** The current contents of [t] as a template.  [t] itself becomes an
    instance of it: its later writes copy pages as any instance's do. *)

val instantiate : template -> t
(** A machine whose mapping and contents start as the template's. *)

val map : t -> addr:int -> len:int -> unit
(** Map every page covering [addr, addr+len), zero-filled on first
    touch.  Costs the same whatever [len] is. *)

val unmap : t -> addr:int -> len:int -> unit
(** Remove the mapping of every page covering [addr, addr+len); later
    access faults. *)

val is_mapped : t -> int -> bool

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit

val read : t -> addr:int -> len:int -> int
(** Little-endian read of [len] in {1,2,4,8} bytes, zero-extended.
    An 8-byte read reconstructs a stored OCaml int exactly. *)

val write : t -> addr:int -> len:int -> int -> unit

val write_string : t -> addr:int -> string -> unit
(** Map and copy a byte string (used by the loader); copies a page
    slice at a time. *)

val read_string : t -> addr:int -> len:int -> string
(** Read up to [len] bytes, stopping early at the first unmapped page
    (used by the instruction fetcher). *)
