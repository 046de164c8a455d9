(** Forward "available checks" analysis.

    A fact [(key, info)] means: on {e every} graph path from a root to
    here, the site [info.site] has emitted a check of variant
    [info.variant] covering displacements [info.lo, info.hi) off the
    address expression [key] = (seg, base, idx, scale), and no
    instruction since has redefined a register of [key] or called a
    function (which could free the guarded object).

    The join is set intersection requiring {e structural} equality —
    in particular the same generating site — so an available fact's
    site lies on every path to the point of use, which is exactly the
    dominance the rewriter's global elimination needs (and re-verifies
    independently against the dominator tree).

    Check sites are not part of the instruction stream: the client
    supplies a [gen] array mapping an instruction index to the facts
    its (planned or discovered) patch site establishes.  A fact
    generated at index [i] holds before instruction [i] runs (the
    trampoline checks first, then executes the displaced instruction),
    so within the transfer gen precedes kill: [Load rax, (rax)]
    generates its fact and immediately kills it. *)

type key = {
  seg : int;
  base : X64.Isa.reg option;
  idx : X64.Isa.reg option;
  scale : int;
}

type info = {
  lo : int;                      (** covered displacement interval... *)
  hi : int;                      (** ...[lo, hi), relative to [key] *)
  site : int;                    (** instruction index of the check site *)
  variant : X64.Isa.variant;
}

(** [Top] = "not yet reached" (the optimistic identity of the
    intersection); blocks left at [Top] in the fixpoint are unreachable
    from every root and report nothing available. *)
type fact = Top | Facts of (key * info) list  (* sorted by key *)

let key_of_mem (m : X64.Isa.mem) : key =
  { seg = m.seg; base = m.base; idx = m.idx; scale = m.scale }

(* Field-by-field comparisons: the transfers below run once per
   instruction, and polymorphic [compare]/[=] on these records and
   options costs a C call each.  [compare_key] orders exactly as
   polymorphic [compare] does (fields in declaration order, [None]
   before [Some]), so fact lists keep their order and the rewriter's
   output its bytes. *)
let compare_reg (a : X64.Isa.reg option) (b : X64.Isa.reg option) =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> Int.compare x y

let compare_key (a : key) (b : key) =
  let c = Int.compare a.seg b.seg in
  if c <> 0 then c
  else
    let c = compare_reg a.base b.base in
    if c <> 0 then c
    else
      let c = compare_reg a.idx b.idx in
      if c <> 0 then c else Int.compare a.scale b.scale

let equal_key (a : key) (b : key) = compare_key a b = 0

let equal_variant (a : X64.Isa.variant) (b : X64.Isa.variant) =
  match (a, b) with
  | Full, Full | Redzone, Redzone | Temporal, Temporal -> true
  | _ -> false

let equal_info (a : info) (b : info) =
  a.lo = b.lo && a.hi = b.hi && a.site = b.site
  && equal_variant a.variant b.variant

let equal_fact (a : fact) (b : fact) =
  match (a, b) with
  | Top, Top -> true
  | Facts xs, Facts ys ->
    List.equal (fun (k, i) (k', i') -> equal_key k k' && equal_info i i') xs ys
  | _ -> false

let rec find (fs : (key * info) list) (k : key) : info option =
  match fs with
  | [] -> None
  | (k', i) :: rest -> if equal_key k k' then Some i else find rest k

(** Does [i] justify skipping a check of [variant] over [lo, hi)?  A
    [Redzone]-only fact cannot stand in for a [Full] check (it misses
    the low-fat bounds half of the complementary check), and the
    [Temporal] lock-and-key check is incomparable with both spatial
    variants (it proves liveness of the key, not redzone bounds — and
    vice versa), so only an equal-variant fact covers it. *)
let covers (i : info) ~(variant : X64.Isa.variant) ~(lo : int) ~(hi : int) =
  i.lo <= lo && i.hi >= hi
  && (equal_variant i.variant variant
     || match (i.variant, variant) with
        | X64.Isa.Full, X64.Isa.Redzone -> true
        | _ -> false)

let join (a : fact) (b : fact) : fact =
  match (a, b) with
  | Top, x | x, Top -> x
  | Facts xs, Facts ys ->
    Facts
      (List.filter
         (fun (k, i) ->
           match find ys k with Some j -> equal_info i j | None -> false)
         xs)

(* insert keeping the list sorted by key; an established wider fact
   beats the incoming one (its older site dominates at least as much) *)
let rec insert (k : key) (i : info) = function
  | [] -> [ (k, i) ]
  | ((k', i') :: rest) as l ->
    let c = compare_key k k' in
    if c < 0 then (k, i) :: l
    else if c = 0 then
      if covers i' ~variant:i.variant ~lo:i.lo ~hi:i.hi then l
      else (k, i) :: rest
    else (k', i') :: insert k i rest

(* does a def mask (bit [r] for register [r]) name a register of [k]? *)
let names defs = function Some r -> defs land (1 lsl r) <> 0 | None -> false
let kills_key (defs : int) (k : key) = names defs k.base || names defs k.idx

let rec any_killed defs = function
  | [] -> false
  | (k, _) :: rest -> kills_key defs k || any_killed defs rest

let transfer_instr (gen : (key * info) list) (instr : X64.Isa.instr)
    (f : fact) : fact =
  match (f, gen) with
  | Top, _ -> Top
  | Facts [], [] -> f  (* the common case: nothing to gen or kill *)
  | Facts fs0, _ ->
    let fs = List.fold_left (fun acc (k, i) -> insert k i acc) fs0 gen in
    let kill_all =
      (* a call into unknown code may free() the guarded object; of
         the known runtime entry points only the allocator pair
         reshapes heap metadata — the simulated I/O calls cannot
         invalidate a checked pointer *)
      match instr with
      | X64.Isa.Callrt (X64.Isa.Malloc | X64.Isa.Free) -> true
      | X64.Isa.Callrt _ -> false
      | _ -> X64.Isa.is_call instr
    in
    let fs =
      if kill_all then []
      else
        let defs = X64.Isa.def_mask instr in
        if defs <> 0 && any_killed defs fs then
          List.filter (fun (k, _) -> not (kills_key defs k)) fs
        else fs
    in
    if fs == fs0 then f else Facts fs

let step ~gen (g : Graph.t) (i : int) (f : fact) : fact =
  transfer_instr gen.(i) (Graph.instr g i) f

let block_transfer ~gen (g : Graph.t) (b : Graph.block) (inp : fact) : fact =
  let f = ref inp in
  for i = b.Graph.first to b.Graph.last do
    f := step ~gen g i !f
  done;
  !f

type t = {
  graph : Graph.t;
  gen : (key * info) list array;
  in_facts : fact array;
}

let solve (g : Graph.t) ~(gen : (key * info) list array) : t =
  if Array.length gen <> Graph.num_instrs g then
    invalid_arg "Avail.solve: one gen entry per instruction";
  let module P = struct
    type nonrec fact = fact

    let equal = equal_fact
    let direction = `Forward
    let init = Top
    let boundary = Facts []  (* nothing is available at a root *)
    let join = join
    let succs _ (b : Graph.block) = b.Graph.succs
    let transfer = block_transfer ~gen
  end in
  let module S = Solver.Make (P) in
  let r = S.solve g in
  { graph = g; gen; in_facts = r.S.in_facts }

let facts = function Top -> [] | Facts fs -> fs

(** Facts available immediately before instruction [index] (before its
    own site's checks run: facts from the same index are excluded). *)
let available_before (t : t) (index : int) : (key * info) list =
  let g = t.graph in
  let bid = Graph.block_of_instr g index in
  let f = ref t.in_facts.(bid) in
  for i = (Graph.block g bid).Graph.first to index - 1 do
    f := step ~gen:t.gen g i !f
  done;
  facts !f

(* The block walk: the fact before instruction [next] of block
   [block], carried from one query to the next.  A query in the same
   block at or after [next] steps only the instructions in between;
   any other query restarts from its block's entry fact. *)
type cursor = {
  avail : t;
  mutable block : int;
  mutable next : int;
  mutable fact : fact;
}

let cursor (t : t) = { avail = t; block = -1; next = 0; fact = Top }

let available_at (c : cursor) (index : int) : (key * info) list =
  let t = c.avail in
  let bid = Graph.block_of_instr t.graph index in
  if bid <> c.block || index < c.next then begin
    c.block <- bid;
    c.next <- (Graph.block t.graph bid).Graph.first;
    c.fact <- t.in_facts.(bid)
  end;
  while c.next < index do
    c.fact <- step ~gen:t.gen t.graph c.next c.fact;
    c.next <- c.next + 1
  done;
  facts c.fact
