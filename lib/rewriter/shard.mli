(** Function-granular sharding of a rewrite.

    [slices] splits a binary's text into the function regions of
    {!Dataflow.Funs.partition}, each with a content digest (the unit
    of incremental caching); [rewrite] rewrites the slices one by one
    with chained trampoline bases and splices the parts back into the
    original binary.

    The contract — enforced by the partition's isolation conditions
    and the chained trampoline bases — is that the result is
    {e byte-identical} to {!Rewrite.rewrite} of the whole binary: same
    patched text, same trampoline section, same trap table, same
    [.elimtab], same stats.  Where the partition cannot establish that
    (non-contiguous sweep, fewer than two regions, or any isolation
    condition fails), the text is one slice, {!whole}. *)

type slice = {
  sl_addr : int;     (** load address of the region *)
  sl_len : int;      (** region length in bytes *)
  sl_bytes : string; (** the region's text bytes *)
  sl_digest : string;
      (** content digest of [sl_bytes] (hex), the function-granular
          cache-key component *)
}

val whole : Binfmt.Relf.t -> slice
(** The whole text as one slice.  Raises [Invalid_argument] when the
    binary has no [.text]. *)

val slices : Binfmt.Relf.t -> slice list
(** Partition the binary's text into slices that tile it in address
    order; [[whole b]] when the partition declines. *)

val rewrite :
  tramp_base:int -> Binfmt.Relf.t -> slice list ->
  (tramp_base:int -> slice -> Binfmt.Relf.t -> Rewrite.t) -> Rewrite.t
(** [rewrite ~tramp_base binary slices part]: call [part ~tramp_base
    slice slice_bin] on each slice in order, where [slice_bin] is a
    single-[.text] binary holding just the slice (entry at the slice
    base) and [tramp_base] is the global base plus the trampoline
    bytes of the slices before it; [part] returns that slice's
    rewrite, e.g. {!Rewrite.rewrite} at that base or a cached copy of
    one.  The parts are then spliced into [binary]: patched texts
    concatenate into [.text], trampolines into [.redfat] at the global
    [tramp_base], trap tables concatenate, elimination tables merge
    (entries re-sorted, policy from the first part), stats sum
    pointwise.

    Precondition, checked before any [part] runs: [slices] tile
    [binary]'s text — the first starts at the text base, each starts
    where the previous one ended, the last ends the text, each
    [sl_bytes] equals the text at its range and each [sl_digest] is
    the digest of its [sl_bytes].  A list read back from a cache that
    breaks it raises [Invalid_argument] instead of splicing a wrong
    binary; so does an empty list. *)
