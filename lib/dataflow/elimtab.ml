(** The elimination table: a hardened binary's record of every check
    the rewriter chose {e not} to emit, with a machine-checkable
    justification per site.  Ships in the [.elimtab] section (next to
    the [.traptab] trap table), so the soundness linter can audit a
    hardened binary from the file alone.

    Format: one header line with the instrumentation policy, then one
    line per eliminated site —
    {v
    !policy reads=1 writes=1
    40001c clear
    400033 dom 400010
    400041 skip
    400055 hoist 40004e 0 4096
    v}
    A binary hardened under a non-default check backend carries a
    [backend=NAME] token in the policy line
    ([!policy backend=temporal reads=1 writes=1]); its absence means
    the default [lowfat] backend, so pre-backend binaries (and the
    default path) parse — and render — unchanged.
    [clear]: the operand satisfies the syntactic never-reaches-the-heap
    rule.  [dom a]: an equivalent or covering check is emitted by the
    patch site at address [a], which dominates this site.  [skip]: the
    rewriter faulted while emitting this site's check and degraded it
    to uninstrumented under its graceful-degradation policy — weaker
    but recorded, so the linter can tell an audited downgrade from a
    rewriter bug.  [hoist s lo hi]: covered by a widened loop-preheader
    check emitted at patch address [s] over the displacement hull
    [lo, hi) (decimal, possibly negative) — the proof-carrying variant,
    which the linter only accepts after independently re-deriving the
    hull and showing the recorded one subsumes it. *)

type reason =
  | Clear          (** syntactic rule: operand cannot reach the heap *)
  | Dom of int     (** covered by the check at this patch address *)
  | Skip           (** degraded to uninstrumented after a site fault *)
  | Hoist of int * int * int
      (** [Hoist (site, lo, hi)]: covered by a widened loop-preheader
          check at patch address [site] over the hull [lo, hi) — the
          linter re-derives the hull and fails unless the recorded one
          subsumes it *)

type t = {
  backend : string;  (** check backend that hardened the binary *)
  reads : bool;   (** were reads instrumented at all? *)
  writes : bool;
  entries : (int * reason) list;  (** eliminated instruction address, reason *)
}

let section_name = ".elimtab"
let default_backend = "lowfat"

let default =
  { backend = default_backend; reads = true; writes = true; entries = [] }

let render (t : t) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (if t.backend = default_backend then
       Printf.sprintf "!policy reads=%d writes=%d\n" (Bool.to_int t.reads)
         (Bool.to_int t.writes)
     else
       Printf.sprintf "!policy backend=%s reads=%d writes=%d\n" t.backend
         (Bool.to_int t.reads) (Bool.to_int t.writes));
  (* [%x] by hand: one line per eliminated site, so no format is
     interpreted per line *)
  let rec hex n =
    if n < 0 then Buffer.add_string b (Printf.sprintf "%x" n)
    else begin
      if n >= 16 then hex (n lsr 4);
      Buffer.add_char b (String.unsafe_get "0123456789abcdef" (n land 15))
    end
  in
  let word w =
    Buffer.add_char b ' ';
    Buffer.add_string b w
  in
  List.iter
    (fun (a, r) ->
      hex a;
      (match r with
      | Clear -> word "clear"
      | Dom s ->
        word "dom ";
        hex s
      | Skip -> word "skip"
      | Hoist (s, lo, hi) ->
        word "hoist ";
        hex s;
        word (string_of_int lo);
        word (string_of_int hi));
      Buffer.add_char b '\n')
    t.entries;
  Buffer.contents b

(* the order of polymorphic [compare] on (address, reason) pairs,
   without its C call on the address *)
let compare_entry ((a, r) : int * reason) ((a', r') : int * reason) =
  let c = Int.compare a a' in
  if c <> 0 then c else compare r r'

let parse (s : string) : t =
  let module R = Binfmt.Reader in
  let r = R.create ~src:section_name s in
  let bad what line =
    R.fail r R.Section (Printf.sprintf "bad %s %S" what line)
  in
  let rec go acc pol =
    match R.line r with
    | None -> { pol with entries = List.rev acc }
    | Some line -> (
      let policy ?(backend = pol.backend) rd wr =
        match (rd, wr) with
        | ("reads=0" | "reads=1"), ("writes=0" | "writes=1") ->
          let reads = rd = "reads=1" and writes = wr = "writes=1" in
          go acc { pol with backend; reads; writes }
        | _ -> bad "policy line" line
      in
      match String.split_on_char ' ' (String.trim line) with
      | [ "" ] -> go acc pol
      | [ "!policy"; rd; wr ] -> policy rd wr
      | [ "!policy"; b; rd; wr ]
        when String.length b > 8 && String.starts_with ~prefix:"backend=" b ->
        policy ~backend:(String.sub b 8 (String.length b - 8)) rd wr
      | [ a; "skip" ] -> go ((R.hex r a, Skip) :: acc) pol
      | [ a; "clear" ] -> go ((R.hex r a, Clear) :: acc) pol
      | [ a; "dom"; d ] ->
        let a = R.hex r a in
        go ((a, Dom (R.hex r d)) :: acc) pol
      | [ a; "hoist"; site; lo; hi ] ->
        let a = R.hex r a in
        let site = R.hex r site in
        let lo = R.dec r lo in
        go ((a, Hoist (site, lo, R.dec r hi)) :: acc) pol
      | _ -> bad "line" line)
  in
  go [] default
