(** The RedFat static binary rewriter (paper §3-§6), built on
    E9Patch-style trampoline patching:

    - every instrumentable memory operand gets a check, placed in a
      trampoline in an otherwise-unused code area within rel32 reach;
    - the patched instruction is replaced by a 5-byte [jmp rel32]; when
      the instruction is shorter, successor *eviction* displaces the
      following instructions into the trampoline too, and when that is
      impossible a 1-byte trap patch with a trap-table entry is the
      fallback (slow but always applicable);
    - optimizations: check {e elimination} (operands that cannot reach
      the heap), check {e batching} (one trampoline guards a run of
      accesses within a basic block), check {e merging} (one check
      covers several accesses differing only in displacement),
      {e global elimination} (a check dominated by an equivalent or
      covering available check is dropped, with the justification
      recorded in the [.elimtab] section for the soundness linter),
      and scratch/flags save specialization driven by interblock
      liveness.

    The rewrite is split into {e planning} — everything above, which
    depends only on the instruction stream's shape — and {e emission},
    which instantiates the plan at concrete addresses.  Plans are
    hash-consed through {!Blueprint}: texts with identical shapes
    share one planning pass (counters [blueprint.hit]/[miss]/
    [unique]), and emission from a shared blueprint is byte-identical
    to a cold rewrite by construction. *)

type options = {
  elim : bool;
  batch : bool;
  merge : bool;
  global_elim : bool;
      (** drop checks dominated by an equivalent/covering available
          check (dataflow over the recovered CFG); every drop is
          recorded in [.elimtab] with its justifying site *)
  scratch_opt : bool;
  instrument_reads : bool;
  instrument_writes : bool;
  allowlist : int list option;
      (** [None]: every site gets the backend's primary check.
          [Some sites]: under the [Lowfat] backend, Full only for
          listed sites, Redzone otherwise (the production phase of the
          paper §5 workflow); other backends plan independently of it *)
  hoist : bool;
      (** hoist checks out of counted loops: a member whose access
          range across a loop's iterations has a derivable convex hull
          ({!Dataflow.Loops.member_hoist}) and whose backend can widen
          its variant gets one widened check in the loop preheader
          instead of a per-iteration check; every covered site is
          recorded in [.elimtab] as a proof-carrying [hoist] entry *)
  profiling : bool;
      (** profiling build: per-site checks (no merging), all Full; the
          [backend] field is ignored and the default recorded *)
  backend : Backend.Check_backend.id;
      (** which check backend plans and emits the instrumentation;
          recorded in the [.elimtab] policy line so the binary is
          self-describing (the runtime and the linter adopt it) *)
}

let unoptimized =
  { elim = false; batch = false; merge = false; global_elim = false;
    scratch_opt = false; instrument_reads = true; instrument_writes = true;
    allowlist = None; hoist = false; profiling = false;
    backend = Backend.Check_backend.default }

let with_elim = { unoptimized with elim = true }
let with_batch = { with_elim with batch = true }

(** All optimizations of Table 1's "+merge" column (which also enables
    the low-level trampoline specialization and global elimination). *)
let optimized =
  { with_batch with merge = true; scratch_opt = true; global_elim = true }

let production ~allowlist = { optimized with allowlist = Some allowlist }

(** [optimized] plus loop-aware check hoisting ([--hoist]); opt-in, so
    the default path stays byte-identical to the pre-hoist rewriter. *)
let with_hoist = { optimized with hoist = true }

(* profiling needs one observable check per site, so global elimination
   is off: an eliminated site would never report to the profiler and
   would be (safely but wastefully) excluded from the allow-list *)
let profiling_build =
  { optimized with merge = false; profiling = true; allowlist = None;
    global_elim = false }

(* canonical rendering of every options field, for content-hash cache
   keys: equal keys must imply identical rewrites *)
let options_key (o : options) =
  Printf.sprintf "e%db%dm%dg%ds%dr%dw%dh%dp%dk%c|%s"
    (Bool.to_int o.elim) (Bool.to_int o.batch) (Bool.to_int o.merge)
    (Bool.to_int o.global_elim)
    (Bool.to_int o.scratch_opt)
    (Bool.to_int o.instrument_reads)
    (Bool.to_int o.instrument_writes)
    (Bool.to_int o.hoist)
    (Bool.to_int o.profiling)
    (Backend.Check_backend.key o.backend)
    (match o.allowlist with
    | None -> "-"
    | Some sites ->
      String.concat ","
        (List.map string_of_int (List.sort_uniq compare sites)))

type stats = {
  instrs_total : int;
  mem_ops : int;            (** instructions with an explicit operand *)
  eliminated : int;
  eliminated_global : int;
      (** checks dropped by global elimination whose covering check was
          emitted, degraded or not *)
  instrumented : int;       (** sites actually guarded *)
  full_sites : int;
  redzone_sites : int;
  temporal_sites : int;     (** sites guarded by a lock-and-key check *)
  trampolines : int;
  checks_emitted : int;     (** post-merging check count *)
  zero_save_sites : int;    (** trampolines needing no register saves *)
  jump_patches : int;
  evictions : int;          (** successor instructions displaced *)
  trap_patches : int;
  degraded_sites : int;
      (** sites downgraded from the backend's primary check to its
          fallback (Redzone for every shipped backend) by a fault *)
  skipped_sites : int;      (** sites left uninstrumented (elimtab [skip]) *)
  hoisted_checks : int;
      (** widened checks emitted in loop preheaders (one per hoist
          group), each standing in for the per-iteration checks of the
          sites it covers *)
  widened_span_bytes : int;
      (** total hull width (hi - lo) over emitted hoisted checks *)
  text_bytes : int;
  tramp_bytes : int;
  checks_by_kind : (string * int) list;
      (** emit/elide breakdown keyed by check kind / elimination rule *)
}

type fault_policy =
  | Abort    (** re-raise a site's fault: the whole rewrite fails *)
  | Degrade
      (** downgrade the faulting plan: retry with Redzone-only checks,
          then fall back to uninstrumented with an [.elimtab] [skip]
          record per site *)

type t = {
  binary : Binfmt.Relf.t;
  traps : (int * int) list;  (** patch address -> trampoline address *)
  stats : stats;
}

type member = {
  mi : int;                   (* instruction index *)
  addr : int;
  m : X64.Isa.mem;
  bytes : int;                (* access size *)
  write : bool;
}

(* --- batching ------------------------------------------------------- *)

(* Group members into batches: members guarded by one trampoline placed
   at the first member.  Validity (paper §6): same basic block, no
   intervening control flow or runtime call, and no intervening
   instruction redefines a register the member's operand uses (the
   "reorder to position I1" property). *)
let make_batches (g : Dataflow.Graph.t) (opts : options)
    (members : member list) : member list list =
  if not opts.batch then List.map (fun m -> [ m ]) members
  else begin
    let batches = ref [] and current = ref [] in
    (* registers defined since the batch began, bit [r] for register [r] *)
    let defined = ref 0 in
    let scanned = ref 0 (* next instr index to scan *) in
    let flush () =
      if !current <> [] then begin
        batches := List.rev !current :: !batches;
        current := []
      end
    in
    let start_fresh (m : member) =
      flush ();
      current := [ m ];
      (* the first member's own defs matter for later members *)
      defined := X64.Isa.def_mask (Dataflow.Graph.instr g m.mi);
      scanned := m.mi + 1
    in
    let try_extend (m : member) =
      (* scan (last scanned, m.mi) for barriers and defs *)
      let ok = ref true in
      let k = ref !scanned in
      while !ok && !k < m.mi do
        let i = Dataflow.Graph.instr g !k in
        if Dataflow.Graph.is_leader g (Dataflow.Graph.addr g !k) then
          ok := false
        else begin
          (match i with
           | X64.Isa.Callrt _ -> ok := false
           | _ -> if not (X64.Isa.falls_through i) then ok := false);
          defined := !defined lor X64.Isa.def_mask i;
          incr k
        end
      done;
      (* the member's own address must not start a new basic block *)
      if Dataflow.Graph.is_leader g m.addr then ok := false;
      if !ok then begin
        let operand_ok = X64.Isa.mem_use_mask m.m land !defined = 0 in
        if operand_ok then begin
          current := m :: !current;
          defined :=
            !defined lor X64.Isa.def_mask (Dataflow.Graph.instr g m.mi);
          scanned := m.mi + 1;
          true
        end
        else false
      end
      else false
    in
    List.iter
      (fun m ->
        match !current with
        | [] -> start_fresh m
        | _ -> if not (try_extend m) then start_fresh m)
      members;
    flush ();
    List.rev !batches
  end

(* --- merging -------------------------------------------------------- *)

let variant_slot = function
  | X64.Isa.Full -> 0
  | X64.Isa.Redzone -> 1
  | X64.Isa.Temporal -> 2

(* A group key: an int tag (the variant's slot when merging, the
   preheader index when hoisting) and an operand's address expression
   (displacement dropped). *)
module Group_tbl = Hashtbl.Make (struct
  type t = int * Dataflow.Avail.key

  let equal ((t, k) : t) ((t', k') : t) =
    Int.equal t t' && Dataflow.Avail.equal_key k k'

  let hash ((t, k) : t) =
    let reg = function None -> 0 | Some r -> r + 1 in
    ((((((t * 31) + k.seg) * 31) + reg k.base) * 31) + reg k.idx) * 31
    + k.scale
end)

(* One value per key, joined in order of appearance; keys listed in
   order of first appearance. *)
let group_by (join : 'g -> 'g -> 'g) (items : (Group_tbl.key * 'g) list) :
    'g list =
  let table = Group_tbl.create 8 and order = ref [] in
  List.iter
    (fun (k, v) ->
      match Group_tbl.find_opt table k with
      | None ->
        let r = ref v in
        Group_tbl.add table k r;
        order := r :: !order
      | Some r -> r := join !r v)
    items;
  List.rev_map ( ! ) !order

(* [g] widened to cover [g'] too: the hull of both ranges, a write if
   either is, Full if either is (Full covers Redzone), both member
   lists.  Operand and site stay [g]'s. *)
let widen (g : Blueprint.bgroup) (g' : Blueprint.bgroup) =
  { g with
    bg_variant =
      (if g'.bg_variant = X64.Isa.Full then X64.Isa.Full else g.bg_variant);
    bg_lo = min g.bg_lo g'.bg_lo;
    bg_hi = max g.bg_hi g'.bg_hi;
    bg_write = g.bg_write || g'.bg_write;
    bg_members = g.bg_members @ g'.bg_members }

(* Merge checks for operands sharing (variant, seg, base, idx, scale):
   the covered range becomes [min disp, max disp+len) (paper §6,
   Figure 7).  Each group keeps its members: global elimination
   records a justification per member, and the stats count guarded
   sites per emitted group. *)
let make_groups (opts : options) ~(variant_of : member -> X64.Isa.variant)
    (batch : member list) : Blueprint.bgroup list =
  let singleton m =
    let v = variant_of m in
    {
      Blueprint.bg_variant = v;
      bg_mem = m.m;
      bg_lo = m.m.disp;
      bg_hi = m.m.disp + m.bytes;
      bg_write = m.write;
      bg_site = m.mi;
      bg_members = [ (m.mi, v) ];
    }
  in
  let groups = List.map singleton batch in
  if not opts.merge then groups
  else
    group_by widen
      (List.map
         (fun g ->
           ( ( variant_slot g.Blueprint.bg_variant,
               Dataflow.Avail.key_of_mem g.bg_mem ),
             g ))
         groups)

(* --- planning: the address-independent blueprint --------------------- *)

let default_tramp_base = Lowfat.Layout.trampoline_base

(* The options rendering for blueprint keys: [options_key] with the
   allow-list sites rewritten to text-relative offsets (an out-of-text
   site never matches an instruction address, so it is dropped), plus
   an explicit present/absent marker — [Some sites] and [None] plan
   differently under the Lowfat backend even when no offset survives. *)
let shape_opts_key (o : options) ~text_addr ~text_end =
  let base = options_key { o with allowlist = None } in
  match o.allowlist with
  | None -> base ^ "|-"
  | Some sites ->
    base ^ "|+"
    ^ String.concat ","
        (List.filter_map
           (fun a ->
             if a >= text_addr && a < text_end then
               Some (string_of_int (a - text_addr))
             else None)
           (List.sort_uniq compare sites))

(* Build the instrumentation plan for graph [g] as a {!Blueprint.t}:
   every address in the result is an instruction index.  Everything
   expensive — operand canonicalization, dominators, loop analysis,
   the availability solve, liveness-driven save specialization, patch
   tactics — happens here; emission merely instantiates indices at the
   text's concrete addresses, so a blueprint shared via
   {!Blueprint.find_or_build} yields byte-identical rewrites.

   While planning, a plan is (patch index, groups), each group paired
   with the instruction indices it covers as a hoisted check (empty
   for an ordinary group, whose sites are its [bg_members]). *)
let plan ?obs (module B : Backend.Check_backend.S) (opts : options)
    (g : Dataflow.Graph.t) : Blueprint.t =
  let sp : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    match obs with
    | Some o -> Obs.span o ~cat:"rewrite" name f
    | None -> f ()
  in
  let n = Dataflow.Graph.num_instrs g in
  (* 1. collect instrumentable members *)
  let mem_ops = ref 0 in
  let records = ref [] (* (instr index, reason), newest first *) in
  let members = ref [] in
  sp "rw.collect" (fun () ->
  let canon = Dataflow.Canon.cursor g in
  for i = 0 to n - 1 do
    match X64.Isa.mem_operand (Dataflow.Graph.instr g i) with
    | None -> ()
    | Some (m, w, write) ->
      incr mem_ops;
      let wanted =
        if write then opts.instrument_writes else opts.instrument_reads
      in
      if wanted then begin
        (* canonical operand: registers renamed to the oldest copies
           holding the same values, known constants folded into the
           displacement.  The generated code churns through scratch
           registers, so without this the merge keys and availability
           facts of one logical address never coincide.  The linter
           canonicalizes identically (same shared pass). *)
        let m = Dataflow.Canon.operand_at canon i m in
        let bytes = X64.Isa.width_bytes w in
        if opts.elim && Analysis.eliminable m ~len:bytes then
          records := (i, Dataflow.Elimtab.Clear) :: !records
        else
          members :=
            { mi = i; addr = Dataflow.Graph.addr g i; m; bytes; write }
            :: !members
      end
  done);
  let members = List.rev !members in
  (* the allow-list by instruction index: a site where no instruction
     starts names no member *)
  let allow =
    match opts.allowlist with
    | None -> None
    | Some sites ->
      let a = Array.make n false in
      List.iter
        (fun s ->
          match Dataflow.Graph.index_at g s with
          | Some i -> a.(i) <- true
          | None -> ())
        sites;
      Some a
  in
  (* the backend makes the per-site instrumentation decision and owns
     the degradation fallback *)
  let variant_of (m : member) : X64.Isa.variant =
    B.plan ~profiling:opts.profiling
      ~allowlisted:
        (match allow with
        | None -> None
        | Some a -> Some a.(m.mi))
  in
  (* 1.5 loop hoisting: a member inside a counted loop whose iteration
     access hull is derivable — and whose backend agrees to widen the
     planned variant — leaves the per-iteration stream.  All hoisted
     members sharing a preheader patch point, widened operand and
     variant become one group checked once per loop entry, over the
     union of their hulls.  Each covered site gets a proof-carrying
     [.elimtab] [hoist] record; the linter re-derives the hull with the
     same [Loops.member_hoist] and rejects the binary if the recorded
     hull does not subsume it.  Profiling builds keep per-iteration
     checks observable, like global elimination. *)
  let hoist_enabled = opts.hoist && not opts.profiling in
  let members, hoisted =
    if not hoist_enabled then (members, [])
    else
      sp "rw.hoist" @@ fun () ->
      let dom = Dataflow.Dom.compute g in
      let loops = Dataflow.Loops.analyze g dom in
      if Array.length loops.Dataflow.Loops.loops = 0 then (members, [])
      else begin
        let kept, hoists =
          List.partition_map
            (fun (m : member) ->
              match B.widen (variant_of m) with
              | None -> Either.Left m
              | Some wv -> (
                match
                  Dataflow.Loops.member_hoist loops ~index:m.mi ~mem:m.m
                    ~bytes:m.bytes
                with
                | None -> Either.Left m
                | Some h ->
                  (* one group per (preheader, widened operand): mixed
                     variants join to Full, so a key never carries two
                     competing hoisted checks *)
                  Either.Right
                    ( (h.h_index, Dataflow.Avail.key_of_mem h.h_mem),
                      ( {
                          Blueprint.bg_variant = wv;
                          bg_mem = h.h_mem;
                          bg_lo = h.h_lo;
                          bg_hi = h.h_hi;
                          bg_write = m.write;
                          bg_site = h.h_index;
                          bg_members = [];
                        },
                        [ m.mi ] ) )))
            members
        in
        ( kept,
          List.map
            (fun ((hg : Blueprint.bgroup), cover) ->
              (hg.bg_site, [ (hg, cover) ]))
            (group_by
               (fun (g, c) (g', c') -> (widen g g', c @ c'))
               hoists) )
      end
  in
  (* one plan per batch: the patch lands at the first member, whose
     trampoline runs the batch's (merged) checks *)
  let plans = sp "rw.plan" @@ fun () ->
    List.filter_map
      (function
        | [] -> None
        | first :: _ as batch ->
          Some
            ( first.mi,
              List.map (fun bg -> (bg, [])) (make_groups opts ~variant_of batch)
            ))
      (make_batches g opts members)
  in
  (* hoisted groups join the plan stream: onto a plan patching the same
     instruction if there is one (the preheader's last instruction may
     itself be a planned member), as a plan of their own otherwise.
     The sort is stable, so a plan's own groups come first, then its
     hoisted groups in creation order. *)
  let plans =
    List.stable_sort (fun (a, _) (b, _) -> compare a b) (plans @ hoisted)
    |> List.fold_left
         (fun acc (i, gs) ->
           match acc with
           | (j, gs0) :: rest when i = j -> (j, gs0 @ gs) :: rest
           | _ -> (i, gs) :: acc)
         []
    |> List.rev
  in
  let is_start = Array.make n false in
  List.iter (fun (i, _) -> is_start.(i) <- true) plans;
  (* 2. global elimination: a planned check whose key, range and
     variant are covered by a check available from a dominating site is
     not emitted; each covered site gets a record citing the emitting
     plan — [Dom] for a member, [Hoist] with the group hull for a site
     a dropped hoisted check stood for.  Facts join by intersection
     requiring the same generating site, so an available fact's site
     lies on every path here — dominance is still re-checked against
     the dominator tree, and a fact generated by a site that is itself
     covered never propagates past it (the covering fact shadows it),
     so recorded justifications always point at emitted sites.
     Profiling builds keep every check observable (see
     [profiling_build]). *)
  let global_elim = opts.global_elim && not opts.profiling in
  let dropped = ref [] in
  (* the sites a hoisted group [bg] covers cite the check at [s] *)
  let cite_hull s (bg : Blueprint.bgroup) cover =
    List.iter
      (fun mi ->
        records :=
          (mi, Dataflow.Elimtab.Hoist (s, bg.bg_lo, bg.bg_hi)) :: !records)
      cover
  in
  let plans = sp "rw.elim" @@ fun () ->
    if not global_elim then plans
    else begin
      let dom = Dataflow.Dom.compute g in
      let gen = Array.make n [] in
      List.iter
        (fun (i, groups) ->
          gen.(i) <-
            (List.map
               (fun ((bg : Blueprint.bgroup), _) ->
                 ( Dataflow.Avail.key_of_mem bg.bg_mem,
                   {
                     Dataflow.Avail.lo = bg.bg_lo;
                     hi = bg.bg_hi;
                     site = i;
                     variant = bg.bg_variant;
                   } ))
               groups))
        plans;
      let avail = Dataflow.Avail.solve g ~gen in
      (* plans come in increasing index order: one walk per block *)
      let avail_at = Dataflow.Avail.cursor avail in
      List.map
        (fun (i, groups) ->
          let facts = Dataflow.Avail.available_at avail_at i in
          ( i,
            List.filter
              (fun ((bg : Blueprint.bgroup), cover) ->
                let key = Dataflow.Avail.key_of_mem bg.bg_mem in
                match Dataflow.Avail.find facts key with
                | Some info
                  when Dataflow.Avail.covers info ~variant:bg.bg_variant
                         ~lo:bg.bg_lo ~hi:bg.bg_hi
                       && Dataflow.Dom.dominates_instr dom ~def:info.site
                            ~use:i ->
                  let s = info.site in
                  dropped := s :: !dropped;
                  List.iter
                    (fun (mi, _) ->
                      records := (mi, Dataflow.Elimtab.Dom s) :: !records)
                    bg.bg_members;
                  (* a hoisted check that is itself covered: the loop's
                     sites cite the covering site; the hull stays the
                     group hull, which the covering fact subsumes *)
                  cite_hull s bg cover;
                  false
                | _ -> true)
              groups ))
        plans
    end
  in
  (* 3. patch tactics and save specialization, still per index: the
     tactic depends on instruction lengths, leaders and the other patch
     starts (fully eliminated plans included); the clobber scan on
     registers and flow — all shape properties *)
  let live =
    if opts.scratch_opt then Some (sp "rw.live" (fun () -> Dataflow.Live.solve g))
    else None
  in
  let b_plans = sp "rw.tactics" @@ fun () ->
    List.filter_map
      (fun (i, groups) ->
        if groups = [] then None
        else begin
          (* the sites of a surviving hoisted check cite its plan *)
          List.iter (fun (bg, cover) -> cite_hull i bg cover) groups;
          let tactic, displaced =
            Patch.decide g ~is_start:(Array.get is_start) i
          in
          let spec =
            if opts.scratch_opt then
              Analysis.clobbers ?live g ~start:i ~limit:24
            else Analysis.conservative
          in
          Some
            {
              Blueprint.bp_first = i;
              bp_tactic = tactic;
              bp_displaced = displaced;
              bp_nsaves = spec.nsaves;
              bp_save_flags = spec.save_flags;
              bp_groups = List.map fst groups;
            }
        end)
      plans
  in
  {
    Blueprint.b_plans;
    b_records = !records;
    b_dropped = !dropped;
    b_mem_ops = !mem_ops;
  }

(* --- the rewriting driver ------------------------------------------- *)

(* What emission made of one plan: its checks, run as planned or
   downgraded to the backend's fallback, or nothing. *)
type outcome =
  | Emitted of { degraded : bool; checks : X64.Isa.check list }
  | Skipped

(** [rewrite ?tramp_base opts binary]: instrument [binary].
    [tramp_base] places the trampoline section (distinct modules of one
    process need distinct trampoline areas, still within rel32 reach of
    their text).  [fault_hook] is called at the start of every
    emission attempt (fault injection); any exception it — or the
    emission itself — raises is handled per [on_fault]. *)
let rewrite ?(tramp_base = default_tramp_base) ?obs
    ?(on_fault = Degrade) ?fault_hook
    (opts : options) (binary : Binfmt.Relf.t) : t =
  (* a profiling build classifies LowFat failures per site (Figure 5),
     so it is a default-backend build whatever backend it names: the
     linter holds every check to the backend [.elimtab] records, and a
     temporal profiling build's Full checks failed it *)
  let opts =
    if opts.profiling then { opts with backend = Backend.Check_backend.default }
    else opts
  in
  (* per-phase spans (category "rewrite") when a collector is given *)
  let sp name f =
    match obs with
    | Some o -> Obs.span o ~cat:"rewrite" name f
    | None -> f ()
  in
  let text = Binfmt.Relf.text_exn binary in
  let stream = sp "rw.recover" @@ fun () ->
    X64.Disasm.sweep_stream ~addr:text.addr text.bytes
  in
  let n = X64.Disasm.length stream in
  let text_end = text.addr + String.length text.bytes in
  let (module B) = Backend.Check_backend.of_id opts.backend in
  (* the plan: interned by text shape, built on a miss (a blueprint
     hit skips every analysis — graph recovery included) *)
  let bkey = sp "rw.shape" @@ fun () ->
    Blueprint.shape_key
      ~opts_key:(shape_opts_key opts ~text_addr:text.addr ~text_end)
      ~text_addr:text.addr ~text_end stream
  in
  let bp =
    Blueprint.find_or_build ?obs ~key:bkey (fun () ->
        let g = sp "rw.graph" @@ fun () ->
          Dataflow.Graph.of_instrs ~entry:text.addr stream
        in
        plan ?obs (module B : Backend.Check_backend.S) opts g)
  in
  (* 4. emission: instantiate the blueprint's indices at this text's
     concrete addresses and build trampolines and patches *)
  let addr_of i = stream.addrs.(i) in
  let patcher = Patch.create ~tramp_base text stream in
  let emit (p : Blueprint.bplan) =
    (* one emission attempt.  Everything fallible — the injection hook,
       the backend's check emission, encoding — happens before the text
       is patched ({!Patch.trampoline} leaves the buffer as it was when
       encoding raises), so a fault leaves the text untouched *)
    let attempt ~degrade =
      match
        (match fault_hook with
        | Some h ->
          h
            ~stage:(if degrade then "retry" else "emit")
            ~site:(addr_of p.bp_first)
        | None -> ());
        let checks =
          List.concat
            (List.mapi
               (fun gi (g : Blueprint.bgroup) ->
                 B.emit
                   {
                     Backend.Check_backend.s_variant =
                       (if degrade then B.fallback else g.bg_variant);
                     s_mem = { g.bg_mem with disp = 0 };
                     s_lo = g.bg_lo;
                     s_hi = g.bg_hi;
                     s_write = g.bg_write;
                     s_site = addr_of g.bg_site;
                     s_nsaves = (if gi = 0 then p.bp_nsaves else 0);
                     s_save_flags = gi = 0 && p.bp_save_flags;
                   })
               p.bp_groups)
        in
        ( checks,
          Patch.trampoline patcher
            ~payload:(List.map (fun ck -> X64.Isa.Check ck) checks)
            ~displaced:p.bp_displaced )
      with
      | emitted -> Ok emitted
      | exception e -> Error e
    in
    let apply ~degraded (checks, tramp) =
      Patch.patch patcher p.bp_tactic ~displaced:p.bp_displaced ~tramp;
      Emitted { degraded; checks }
    in
    match attempt ~degrade:false with
    | Ok emitted -> apply ~degraded:false emitted
    | Error e -> (
      match on_fault with
      | Abort -> raise e
      | Degrade -> (
        (* weaker but sound: every primary-variant site of the plan now
           carries the backend's fallback check.  A dependent [Dom]
           record elsewhere stays valid — the linter audits range and
           dominance of the emitted check, which the downgrade
           preserves.  Failing that, the plan's sites go uninstrumented
           (one [skip] record each, below) *)
        match attempt ~degrade:true with
        | Ok emitted -> apply ~degraded:true emitted
        | Error _ -> Skipped))
  in
  let outcomes =
    sp "rw.emit" (fun () ->
        List.map (fun p -> (p, emit p)) bp.Blueprint.b_plans)
  in
  (* what follows — the tally, the final records, the [.elimtab] and
     the patched binary — is the rewriter's own work too *)
  sp "rw.finish" @@ fun () ->
  (* one pass over the outcomes tallies what was emitted *)
  let sites = Array.make 3 0 and emitted = Array.make 3 0 in
  let trampolines = ref 0 and zero_save_sites = ref 0 in
  let degraded_sites = ref 0 in
  let hoisted_checks = ref 0 and widened_span_bytes = ref 0 in
  let skipped = Hashtbl.create 4 in
  let skip_records = ref [] in
  List.iter
    (fun ((p : Blueprint.bplan), outcome) ->
      match outcome with
      | Skipped ->
        Hashtbl.replace skipped p.bp_first ();
        List.iter
          (fun (g : Blueprint.bgroup) ->
            List.iter
              (fun (mi, _) ->
                skip_records := (mi, Dataflow.Elimtab.Skip) :: !skip_records)
              g.bg_members)
          p.bp_groups
      | Emitted { degraded; checks } ->
        incr trampolines;
        if p.bp_nsaves = 0 then incr zero_save_sites;
        List.iter
          (fun (g : Blueprint.bgroup) ->
            if g.bg_members = [] then begin
              incr hoisted_checks;
              widened_span_bytes :=
                !widened_span_bytes + (g.bg_hi - g.bg_lo)
            end;
            List.iter
              (fun (_, v) ->
                if degraded && v <> B.fallback then incr degraded_sites;
                let k = variant_slot (if degraded then B.fallback else v) in
                sites.(k) <- sites.(k) + 1)
              g.bg_members)
          p.bp_groups;
        List.iter
          (fun (ck : X64.Isa.check) ->
            let k = variant_slot ck.ck_variant in
            emitted.(k) <- emitted.(k) + 1)
          checks)
    outcomes;
  (* the final records, instantiated at this text's addresses: a [Dom]
     or [Hoist] record citing a skipped plan is no longer a proof, so
     it becomes [skip] and the linter audits it as a degradation, not
     a soundness failure.  The elimination counts are those of the
     final records. *)
  let cites_skipped s = Hashtbl.mem skipped s in
  let clear = ref 0 and hoist = ref 0 and skip = ref 0 in
  let entries =
    List.rev_map
      (fun (i, (r : Dataflow.Elimtab.reason)) ->
        let r : Dataflow.Elimtab.reason =
          match r with
          | (Dom s | Hoist (s, _, _)) when cites_skipped s -> Skip
          | r -> r
        in
        ( addr_of i,
          match r with
          | Clear -> incr clear; r
          | Skip -> incr skip; r
          | Dom s -> Dom (addr_of s)
          | Hoist (s, lo, hi) -> incr hoist; Hoist (addr_of s, lo, hi) ))
      (List.rev_append !skip_records bp.Blueprint.b_records)
  in
  let eliminated_global =
    List.fold_left
      (fun k s -> if cites_skipped s then k else k + 1)
      0 bp.Blueprint.b_dropped
  in
  (* the elimination table ships inside the binary, like the trap
     table: every dropped check with its justification, so the
     soundness linter can audit the file alone *)
  let elimtab =
    Dataflow.Elimtab.render
      {
        Dataflow.Elimtab.backend = B.name;
        reads = opts.instrument_reads;
        writes = opts.instrument_writes;
        entries = List.sort Dataflow.Elimtab.compare_entry entries;
      }
  in
  let jump_patches = Patch.jump_patches patcher in
  let trap_patches = Patch.trap_patches patcher in
  let checks_by_kind =
    [
      ("elide.clear", !clear);
      ("elide.dom", eliminated_global);
      ("elide.hoist", !hoist);
      ("emit.full", emitted.(0));
      ("emit.redzone", emitted.(1));
      ("emit.temporal", emitted.(2));
      ("patch.jump", jump_patches);
      ("patch.trap", trap_patches);
      ("degrade.redzone", !degraded_sites);
      ("degrade.skip", !skip);
    ]
  in
  (match obs with
  | Some o ->
    List.iter
      (fun (k, v) -> if v > 0 then Obs.add o ~n:v ("rw." ^ k))
      checks_by_kind
  | None -> ());
  let stats =
    {
      instrs_total = n;
      mem_ops = bp.Blueprint.b_mem_ops;
      eliminated = !clear;
      eliminated_global;
      instrumented = sites.(0) + sites.(1) + sites.(2);
      full_sites = sites.(0);
      redzone_sites = sites.(1);
      temporal_sites = sites.(2);
      trampolines = !trampolines;
      checks_emitted = emitted.(0) + emitted.(1) + emitted.(2);
      zero_save_sites = !zero_save_sites;
      jump_patches;
      evictions = Patch.evictions patcher;
      trap_patches;
      degraded_sites = !degraded_sites;
      skipped_sites = !skip;
      hoisted_checks = !hoisted_checks;
      widened_span_bytes = !widened_span_bytes;
      text_bytes = String.length text.bytes;
      tramp_bytes = String.length (Patch.tramp_bytes patcher);
      checks_by_kind;
    }
  in
  {
    binary =
      Patch.finish patcher ~name:".redfat"
        ~extra:
          [
            Binfmt.Relf.section ~name:Dataflow.Elimtab.section_name ~addr:0
              elimtab;
          ]
        binary;
    traps = Patch.traps patcher;
    stats;
  }

(** A binary is considered hardened if it carries a [.redfat] section. *)
let is_hardened (b : Binfmt.Relf.t) =
  Binfmt.Relf.find_section b ".redfat" <> None

(** Audit a hardened binary with the rewrite-soundness linter. *)
let verify ?allow (b : Binfmt.Relf.t) :
    (Dataflow.Verify.report, string) result =
  Dataflow.Verify.run ?allow ~traps:(Patch.traps_of_binary b) b

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "@[<v>instructions:      %d@,\
     memory operands:   %d@,\
     eliminated:        %d@,\
     eliminated global: %d@,\
     instrumented:      %d (full %d / redzone %d / temporal %d)@,\
     trampolines:       %d@,\
     checks emitted:    %d@,\
     zero-save sites:   %d@,\
     jump patches:      %d@,\
     evictions:         %d@,\
     trap patches:      %d@,\
     degraded sites:    %d@,\
     skipped sites:     %d@,\
     hoisted checks:    %d (hull %d bytes)@,\
     text bytes:        %d@,\
     trampoline bytes:  %d@]"
    s.instrs_total s.mem_ops s.eliminated s.eliminated_global s.instrumented
    s.full_sites s.redzone_sites s.temporal_sites s.trampolines s.checks_emitted
    s.zero_save_sites s.jump_patches s.evictions s.trap_patches
    s.degraded_sites s.skipped_sites s.hoisted_checks s.widened_span_bytes
    s.text_bytes s.tramp_bytes
