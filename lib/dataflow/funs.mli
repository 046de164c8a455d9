(** Function-granular partition of a recovered instruction stream.

    [partition] splits a text into contiguous {e function} regions —
    boundaries at the entry, every decode-aligned direct-call target,
    and every decode-aligned code-pointer constant — and accepts the
    split only when rewriting each region in isolation is {e provably}
    identical to rewriting the whole text:

    - no aligned jump/branch target crosses a region boundary (calls
      and code-pointer constants are fine: they land on region starts
      by construction);
    - no region's final instruction falls through, branches, or calls
      (its flow is [Stop], [Dyn_goto], or an intra-region [Goto]), so
      no implicit edge links adjacent regions;
    - per-region block reachability from the region start coincides
      with whole-graph reachability, so the availability and dominator
      lattices agree (an unreachable block is Top for the whole-binary
      analyses; a region in which it became reachable could eliminate
      checks the monolithic rewrite keeps).

    Under these conditions every interprocedural edge the whole-binary
    graph has and a region graph lacks is a direct-call edge, and the
    availability transfer kills all facts at calls while every region
    start is an analysis root (boundary = no facts) — so facts,
    dominance queries and liveness restricted to a region are equal in
    both graphs.  [None] means "keep the text as one region"; that is
    always sound. *)

type fn = {
  f_first : int;  (** index of the region's first instruction *)
  f_count : int;  (** number of instructions *)
  f_addr : int;   (** address of the first instruction *)
  f_len : int;    (** region length in bytes *)
}

val partition : text_addr:int -> X64.Disasm.stream -> fn list option
(** [None] when the text has fewer than two regions or any
    isolation condition fails. *)
