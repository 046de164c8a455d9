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
      (** profiling build: per-site checks (no merging), all Full *)
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
  eliminated_global : int;  (** checks dropped by global elimination *)
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
let make_batches (cfg : Cfg.t) (opts : options) (members : member list) :
    member list list =
  if not opts.batch then List.map (fun m -> [ m ]) members
  else begin
    let batches = ref [] and current = ref [] in
    let defined = Array.make X64.Isa.num_regs false in
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
      Array.fill defined 0 X64.Isa.num_regs false;
      (* the first member's own defs matter for later members *)
      let _, i0, _ = cfg.instrs.(m.mi) in
      List.iter (fun r -> defined.(r) <- true) (X64.Isa.defs i0);
      scanned := m.mi + 1
    in
    let try_extend (m : member) =
      (* scan (last scanned, m.mi) for barriers and defs *)
      let ok = ref true in
      let k = ref !scanned in
      while !ok && !k < m.mi do
        let addr, i, _ = cfg.instrs.(!k) in
        if Cfg.is_leader cfg addr then ok := false
        else begin
          (match X64.Isa.flow_of i with
           | Fall -> ()
           | _ -> ok := false);
          (match i with X64.Isa.Callrt _ -> ok := false | _ -> ());
          List.iter (fun r -> defined.(r) <- true) (X64.Isa.defs i);
          incr k
        end
      done;
      (* the member's own address must not start a new basic block *)
      if Cfg.is_leader cfg m.addr then ok := false;
      if !ok then begin
        let operand_ok =
          List.for_all (fun r -> not defined.(r)) (X64.Isa.mem_uses m.m)
        in
        if operand_ok then begin
          current := m :: !current;
          let _, im, _ = cfg.instrs.(m.mi) in
          List.iter (fun r -> defined.(r) <- true) (X64.Isa.defs im);
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

type group = {
  g_variant : X64.Isa.variant;
  g_mem : X64.Isa.mem;
  g_lo : int;
  g_hi : int;
  g_write : bool;
  g_site : int;
}

let operand_key (m : X64.Isa.mem) = (m.seg, m.base, m.idx, m.scale)

(* Merge checks for operands sharing (variant, seg, base, idx, scale):
   the covered range becomes [min disp, max disp+len) (paper §6,
   Figure 7).  Each group keeps its member list: global elimination
   records a justification per member, and the stats count guarded
   sites per emitted group. *)
let make_groups (opts : options) ~(variant_of : member -> X64.Isa.variant)
    (batch : member list) : (group * member list) list =
  let singleton m =
    {
      g_variant = variant_of m;
      g_mem = m.m;
      g_lo = m.m.disp;
      g_hi = m.m.disp + m.bytes;
      g_write = m.write;
      g_site = m.addr;
    }
  in
  if not opts.merge then List.map (fun m -> (singleton m, [ m ])) batch
  else begin
    let table = Hashtbl.create 8 and order = ref [] in
    List.iter
      (fun m ->
        let key = (variant_of m, operand_key m.m) in
        match Hashtbl.find_opt table key with
        | None ->
          Hashtbl.add table key (ref (singleton m), ref [ m ]);
          order := key :: !order
        | Some (g, ms) ->
          ms := m :: !ms;
          g :=
            { !g with
              g_lo = min !g.g_lo m.m.disp;
              g_hi = max !g.g_hi (m.m.disp + m.bytes);
              g_write = !g.g_write || m.write })
      batch;
    List.rev_map
      (fun key ->
        let g, ms = Hashtbl.find table key in
        (!g, List.rev !ms))
      !order
  end

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

(* Build the instrumentation plan for [cfg] as a {!Blueprint.t}: every
   address in the result is an instruction index.  Everything
   expensive — operand canonicalization, dominators, loop analysis,
   the availability solve, liveness-driven save specialization, patch
   tactics — happens here; emission merely instantiates indices at the
   text's concrete addresses, so a blueprint shared via
   {!Blueprint.find_or_build} yields byte-identical rewrites. *)
let plan ?obs (module B : Backend.Check_backend.S) (opts : options)
    (cfg : Cfg.t) : Blueprint.t =
  let sp : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    match obs with
    | Some o -> Obs.span o ~cat:"rewrite" name f
    | None -> f ()
  in
  let n = Cfg.num_instrs cfg in
  (* 1. collect instrumentable members *)
  let mem_ops = ref 0 and eliminated = ref 0 in
  let brecords = ref [] (* (instr index, Blueprint.reason), newest first *) in
  let members = ref [] in
  sp "rw.collect" (fun () ->
  for i = 0 to n - 1 do
    let addr, instr, _len = cfg.instrs.(i) in
    match X64.Isa.mem_operand instr with
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
        let m = Dataflow.Canon.operand cfg.graph i m in
        let bytes = X64.Isa.width_bytes w in
        if opts.elim && Analysis.eliminable m ~len:bytes then begin
          incr eliminated;
          brecords := (i, Blueprint.Clear) :: !brecords
        end
        else members := { mi = i; addr; m; bytes; write } :: !members
      end
  done);
  let members = List.rev !members in
  let allow =
    match opts.allowlist with
    | None -> None
    | Some sites ->
      let h = Hashtbl.create (List.length sites) in
      List.iter (fun s -> Hashtbl.replace h s ()) sites;
      Some h
  in
  (* the backend makes the per-site instrumentation decision and owns
     the degradation fallback *)
  let variant_of (m : member) : X64.Isa.variant =
    B.plan ~profiling:opts.profiling
      ~allowlisted:
        (match allow with
        | None -> None
        | Some h -> Some (Hashtbl.mem h m.addr))
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
  let hoisted_members = ref 0 in
  (* (preheader index, widened operand key) -> covered member
     indices.  The [hoist] records are written after global
     elimination, which may drop a hoisted check that is itself
     covered by a dominating available check — the members then cite
     the covering site instead of the dropped preheader check. *)
  let hoist_members = Hashtbl.create 8 in
  let members, hoist_plans =
    if not hoist_enabled then (members, [])
    else
      sp "rw.hoist" @@ fun () ->
      let dom = Dataflow.Dom.compute cfg.graph in
      let loops = Dataflow.Loops.analyze cfg.graph dom in
      if Array.length loops.Dataflow.Loops.loops = 0 then (members, [])
      else begin
        let table = Hashtbl.create 8 and order = ref [] in
        let kept =
          List.filter
            (fun (m : member) ->
              match B.widen (variant_of m) with
              | None -> true
              | Some wv -> (
                match
                  Dataflow.Loops.member_hoist loops ~index:m.mi ~mem:m.m
                    ~bytes:m.bytes
                with
                | None -> true
                | Some h ->
                  (* one group per (preheader, widened operand): mixed
                     variants join to Full (which covers Redzone), so a
                     key never carries two competing hoisted checks *)
                  let key =
                    (h.Dataflow.Loops.h_index,
                     operand_key h.Dataflow.Loops.h_mem)
                  in
                  (match Hashtbl.find_opt table key with
                   | None ->
                     Hashtbl.add table key
                       (ref (h, h.Dataflow.Loops.h_lo,
                             h.Dataflow.Loops.h_hi, m.write, wv, [ m ]));
                     order := key :: !order
                   | Some r ->
                     let h0, lo, hi, w, v, ms = !r in
                     r :=
                       ( h0,
                         min lo h.Dataflow.Loops.h_lo,
                         max hi h.Dataflow.Loops.h_hi,
                         w || m.write,
                         (if v = X64.Isa.Full || wv = X64.Isa.Full then
                            X64.Isa.Full
                          else v),
                         m :: ms ));
                  false))
            members
        in
        let hoist_plans =
          List.rev_map
            (fun key ->
              let (h : Dataflow.Loops.hoist), lo, hi, w, wv, ms =
                !(Hashtbl.find table key)
              in
              hoisted_members := !hoisted_members + List.length ms;
              Hashtbl.replace hoist_members key
                (List.rev_map (fun (m : member) -> m.mi) ms);
              let first =
                {
                  mi = h.Dataflow.Loops.h_index;
                  addr = h.Dataflow.Loops.h_addr;
                  m = h.Dataflow.Loops.h_mem;
                  bytes = hi - lo;
                  write = w;
                }
              in
              let group =
                {
                  g_variant = wv;
                  g_mem = h.Dataflow.Loops.h_mem;
                  g_lo = lo;
                  g_hi = hi;
                  g_write = w;
                  g_site = h.Dataflow.Loops.h_addr;
                }
              in
              (* the empty member list marks a hoist group: its covered
                 sites live in [hoist_members], and site accounting has
                 nothing to add *)
              (first, (group, ([] : member list))))
            !order
        in
        (kept, hoist_plans)
      end
  in
  (* one plan per batch: the patch lands at the first member, whose
     trampoline runs the batch's (merged) checks *)
  let plans = sp "rw.plan" @@ fun () ->
    let batches = make_batches cfg opts members in
    List.filter_map
      (function
        | [] -> None
        | first :: _ as batch ->
          Some (first, make_groups opts ~variant_of batch))
      batches
  in
  (* merge hoisted groups into the plan stream: onto an existing plan
     patching the same instruction if there is one (the preheader's
     last instruction may itself be a planned member), as a plan of
     their own otherwise *)
  let plans =
    if hoist_plans = [] then plans
    else begin
      let extra = Hashtbl.create 8 in
      List.iter
        (fun ((first : member), g) ->
          Hashtbl.replace extra first.mi
            (match Hashtbl.find_opt extra first.mi with
             | None -> (first, [ g ])
             | Some (f, gs) -> (f, g :: gs)))
        hoist_plans;
      let plans =
        List.map
          (fun ((first : member), groups) ->
            match Hashtbl.find_opt extra first.mi with
            | None -> (first, groups)
            | Some (_, gs) ->
              Hashtbl.remove extra first.mi;
              (first, groups @ List.rev gs))
          plans
      in
      let rest =
        Hashtbl.fold
          (fun _ (f, gs) acc -> (f, List.rev gs) :: acc)
          extra []
      in
      List.sort
        (fun ((a : member), _) ((b : member), _) -> compare a.mi b.mi)
        (plans @ rest)
    end
  in
  let patch_starts = Hashtbl.create 64 in
  List.iter (fun (first, _) -> Hashtbl.replace patch_starts first.mi ()) plans;
  (* 2. global elimination: a planned check whose key, range and
     variant are covered by a check available from a dominating site is
     not emitted; the justification (member index -> emitting patch
     index) goes to the blueprint records.  Facts join by intersection
     requiring the same generating site, so an available fact's site
     lies on every path here — dominance is still re-checked against
     the dominator tree, and a fact generated by a site that is itself
     covered never propagates past it (the covering fact shadows it),
     so recorded justifications always point at emitted sites.
     Profiling builds keep every check observable (see
     [profiling_build]). *)
  let global_elim = opts.global_elim && not opts.profiling in
  let eliminated_global = ref 0 in
  let plans = sp "rw.elim" @@ fun () ->
    if not global_elim then
      List.map (fun (first, groups) -> (first, groups, [])) plans
    else begin
      let graph = cfg.graph in
      let dom = Dataflow.Dom.compute graph in
      let gen_tbl = Hashtbl.create 64 in
      List.iter
        (fun ((first : member), groups) ->
          Hashtbl.replace gen_tbl first.mi
            (List.map
               (fun ((g : group), _) ->
                 ( Dataflow.Avail.key_of_mem g.g_mem,
                   {
                     Dataflow.Avail.lo = g.g_lo;
                     hi = g.g_hi;
                     site = first.mi;
                     variant = g.g_variant;
                   } ))
               groups))
        plans;
      let gen i = Option.value (Hashtbl.find_opt gen_tbl i) ~default:[] in
      let avail = Dataflow.Avail.solve graph ~gen in
      List.map
        (fun ((first : member), groups) ->
          let facts = Dataflow.Avail.available_before avail first.mi in
          let emitted, dropped =
            List.partition
              (fun ((g : group), (_ : member list)) ->
                match
                  Dataflow.Avail.find facts (Dataflow.Avail.key_of_mem g.g_mem)
                with
                | Some info
                  when Dataflow.Avail.covers info ~variant:g.g_variant
                         ~lo:g.g_lo ~hi:g.g_hi
                       && Dataflow.Dom.dominates_instr dom ~def:info.site
                            ~use:first.mi ->
                  false
                | _ -> true)
              groups
          in
          let records =
            List.concat_map
              (fun ((g : group), (ms : member list)) ->
                let info =
                  Option.get
                    (Dataflow.Avail.find facts
                       (Dataflow.Avail.key_of_mem g.g_mem))
                in
                incr eliminated_global;
                match ms with
                | [] ->
                  (* a hoisted check that is itself covered: the loop's
                     members cite the covering site; the hull stays the
                     group hull, which the covering fact subsumes *)
                  List.map
                    (fun mi ->
                      (mi,
                       Blueprint.Hoist
                         (info.Dataflow.Avail.site, g.g_lo, g.g_hi)))
                    (Option.value
                       (Hashtbl.find_opt hoist_members
                          (first.mi, operand_key g.g_mem))
                       ~default:[])
                | ms ->
                  List.map
                    (fun (m : member) ->
                      (m.mi, Blueprint.Dom info.Dataflow.Avail.site))
                    ms)
              dropped
          in
          (first, emitted, records))
        plans
    end
  in
  (* the surviving hoisted checks' covered sites cite the emitted
     preheader check *)
  List.iter
    (fun ((first : member), emitted, _) ->
      List.iter
        (fun ((g : group), (ms : member list)) ->
          if ms = [] then
            List.iter
              (fun mi ->
                brecords :=
                  (mi, Blueprint.Hoist (first.mi, g.g_lo, g.g_hi))
                  :: !brecords)
              (Option.value
                 (Hashtbl.find_opt hoist_members
                    (first.mi, operand_key g.g_mem))
                 ~default:[]))
        emitted)
    plans;
  List.iter
    (fun (_, _, records) ->
      brecords := List.rev_append records !brecords)
    plans;
  (* 3. patch tactics and save specialization, still per index: the
     tactic depends on instruction lengths, leaders and the other patch
     starts; the clobber scan on registers and flow — all shape
     properties *)
  let live =
    if opts.scratch_opt then Some (Dataflow.Live.solve cfg.graph) else None
  in
  let bplans =
    List.map
      (fun ((first : member), (groups : (group * member list) list), _) ->
        let tactic, displaced =
          (* a fully eliminated plan is never patched *)
          if groups = [] then (Patch.Trap, [ first.mi ])
          else Patch.decide cfg ~is_start:(Hashtbl.mem patch_starts) first.mi
        in
        let spec =
          if groups = [] || not opts.scratch_opt then Analysis.conservative
          else Analysis.clobbers ?live cfg ~start:first.mi ~limit:24
        in
        {
          Blueprint.bp_first = first.mi;
          bp_tactic = tactic;
          bp_displaced = displaced;
          bp_nsaves = spec.nsaves;
          bp_save_flags = spec.save_flags;
          bp_groups =
            List.map
              (fun ((g : group), (ms : member list)) ->
                {
                  Blueprint.bg_variant = g.g_variant;
                  bg_mem = g.g_mem;
                  bg_lo = g.g_lo;
                  bg_hi = g.g_hi;
                  bg_write = g.g_write;
                  bg_site = Hashtbl.find cfg.index_of g.g_site;
                  bg_members =
                    List.map (fun (m : member) -> (m.mi, variant_of m)) ms;
                })
              groups;
        })
      plans
  in
  {
    Blueprint.b_plans = bplans;
    b_records = !brecords;
    b_mem_ops = !mem_ops;
    b_eliminated = !eliminated;
    b_eliminated_global = !eliminated_global;
    b_hoisted_members = !hoisted_members;
  }

(* --- the rewriting driver ------------------------------------------- *)

(** [rewrite ?tramp_base opts binary]: instrument [binary].
    [tramp_base] places the trampoline section (distinct modules of one
    process need distinct trampoline areas, still within rel32 reach of
    their text).  [fault_hook] is called at the start of every
    emission attempt (fault injection); any exception it — or the
    emission itself — raises is handled per [on_fault]. *)
let rewrite ?(tramp_base = default_tramp_base) ?obs
    ?(on_fault = Degrade) ?fault_hook
    (opts : options) (binary : Binfmt.Relf.t) : t =
  (* per-phase spans (category "rewrite") when a collector is given *)
  let sp name f =
    match obs with
    | Some o -> Obs.span o ~cat:"rewrite" name f
    | None -> f ()
  in
  let text = Binfmt.Relf.text_exn binary in
  let instrs = sp "rw.recover" @@ fun () ->
    Array.of_list (X64.Disasm.sweep ~addr:text.addr text.bytes)
  in
  let n = Array.length instrs in
  let text_end = text.addr + String.length text.bytes in
  let (module B) = Backend.Check_backend.of_id opts.backend in
  (* the plan: interned by text shape, built on a miss (a blueprint
     hit skips every analysis — graph recovery included) *)
  let bkey =
    Blueprint.shape_key
      ~opts_key:(shape_opts_key opts ~text_addr:text.addr ~text_end)
      ~text_addr:text.addr ~text_end instrs
  in
  let bp =
    Blueprint.find_or_build ?obs ~key:bkey (fun () ->
        let cfg = sp "rw.graph" @@ fun () ->
          Cfg.of_instrs ~text_addr:text.addr instrs
        in
        plan ?obs (module B : Backend.Check_backend.S) opts cfg)
  in
  (* 4. emission: instantiate the blueprint's indices at this text's
     concrete addresses and build trampolines and patches *)
  let addr_of i =
    let a, _, _ = instrs.(i) in
    a
  in
  let eliminated_global = ref bp.Blueprint.b_eliminated_global in
  let hoisted_members = ref bp.Blueprint.b_hoisted_members in
  let elim_records =
    ref
      (List.map
         (fun (i, r) ->
           ( addr_of i,
             match r with
             | Blueprint.Clear -> Dataflow.Elimtab.Clear
             | Blueprint.Dom s -> Dataflow.Elimtab.Dom (addr_of s)
             | Blueprint.Hoist (s, lo, hi) ->
               Dataflow.Elimtab.Hoist (addr_of s, lo, hi) ))
         bp.Blueprint.b_records)
  in
  let patcher = Patch.create ~tramp_base text instrs in
  let instrumented = ref 0 in
  let full_sites = ref 0 and redzone_sites = ref 0 and temporal_sites = ref 0 in
  let checks_emitted = ref 0 in
  let emit_full = ref 0 and emit_redzone = ref 0 and emit_temporal = ref 0 in
  let trampolines = ref 0 and zero_save_sites = ref 0 in
  let degraded_sites = ref 0 and skipped_sites = ref 0 in
  let hoisted_checks = ref 0 and widened_span_bytes = ref 0 in
  (* patch-site addresses of plans that were skipped entirely: [Dom]
     records citing them are unjustified and downgrade to [Skip] in the
     post-pass below *)
  let skipped_plan_sites = Hashtbl.create 4 in
  let do_plan (p : Blueprint.bplan) =
    if p.Blueprint.bp_groups <> [] then begin
      let a0 = addr_of p.Blueprint.bp_first in
      let plan_members =
        List.concat_map
          (fun (g : Blueprint.bgroup) -> g.Blueprint.bg_members)
          p.Blueprint.bp_groups
      in
      (* one emission attempt.  Everything fallible — the injection
         hook, the backend's check emission, encoding — happens before
         any state changes ({!Patch.trampoline} leaves the buffer as it
         was when encoding raises), so a fault leaves the text and the
         counters untouched.  [apply] counts and patches on success. *)
      let attempt ~degrade () =
        match
          (match fault_hook with
          | Some h ->
            h ~stage:(if degrade then "retry" else "emit") ~site:a0
          | None -> ());
          let checks =
            List.concat
              (List.mapi
                 (fun gi (g : Blueprint.bgroup) ->
                   B.emit
                     {
                       Backend.Check_backend.s_variant =
                         (if degrade then B.fallback
                          else g.Blueprint.bg_variant);
                       s_mem = { g.Blueprint.bg_mem with disp = 0 };
                       s_lo = g.Blueprint.bg_lo;
                       s_hi = g.Blueprint.bg_hi;
                       s_write = g.Blueprint.bg_write;
                       s_site = addr_of g.Blueprint.bg_site;
                       s_nsaves = (if gi = 0 then p.Blueprint.bp_nsaves else 0);
                       s_save_flags = gi = 0 && p.Blueprint.bp_save_flags;
                     })
                 p.Blueprint.bp_groups)
          in
          ( checks,
            Patch.trampoline patcher
              ~payload:(List.map (fun ck -> X64.Isa.Check ck) checks)
              ~displaced:p.Blueprint.bp_displaced )
        with
        | emitted -> Ok emitted
        | exception e -> Error e
      in
      let apply ~degrade (checks, tramp) =
        incr trampolines;
        List.iter
          (fun ((_ : int), v) ->
            incr instrumented;
            match (if degrade then B.fallback else v) with
            | X64.Isa.Full -> incr full_sites
            | X64.Isa.Redzone -> incr redzone_sites
            | X64.Isa.Temporal -> incr temporal_sites)
          plan_members;
        if p.Blueprint.bp_nsaves = 0 then incr zero_save_sites;
        List.iter
          (fun (ck : X64.Isa.check) ->
            incr checks_emitted;
            match ck.ck_variant with
            | X64.Isa.Full -> incr emit_full
            | X64.Isa.Redzone -> incr emit_redzone
            | X64.Isa.Temporal -> incr emit_temporal)
          checks;
        List.iter
          (fun (g : Blueprint.bgroup) ->
            if g.Blueprint.bg_members = [] then begin
              incr hoisted_checks;
              widened_span_bytes :=
                !widened_span_bytes + (g.Blueprint.bg_hi - g.Blueprint.bg_lo)
            end)
          p.Blueprint.bp_groups;
        Patch.patch patcher p.Blueprint.bp_tactic
          ~displaced:p.Blueprint.bp_displaced ~tramp
      in
      match attempt ~degrade:false () with
      | Ok emitted -> apply ~degrade:false emitted
      | Error e -> (
        match on_fault with
        | Abort -> raise e
        | Degrade -> (
          match attempt ~degrade:true () with
          | Ok emitted ->
            (* weaker but sound: every primary-variant site of the plan
               now carries the backend's fallback check.  A dependent
               [Dom] record elsewhere stays valid — the linter audits
               range and dominance of the emitted check, which the
               downgrade preserves. *)
            List.iter
              (fun ((_ : int), v) ->
                if v <> B.fallback then incr degraded_sites)
              plan_members;
            apply ~degrade:true emitted
          | Error _ ->
            (* uninstrumented but audited: one [skip] record per site,
               and any [Dom] justification citing this never-emitted
               plan is downgraded in the post-pass *)
            skipped_sites := !skipped_sites + List.length plan_members;
            List.iter
              (fun (mi, (_ : X64.Isa.variant)) ->
                elim_records :=
                  (addr_of mi, Dataflow.Elimtab.Skip) :: !elim_records)
              plan_members;
            Hashtbl.replace skipped_plan_sites a0 ()))
    end
  in
  sp "rw.emit" (fun () -> List.iter do_plan bp.Blueprint.b_plans);
  (* post-pass: a [Dom] record whose justifying check was never emitted
     (its plan was skipped) is no longer a proof — downgrade it to
     [skip] so the linter audits it as a degradation, not a soundness
     failure *)
  if Hashtbl.length skipped_plan_sites > 0 then begin
    elim_records :=
      List.map
        (fun (a, r) ->
          match r with
          | Dataflow.Elimtab.Dom s when Hashtbl.mem skipped_plan_sites s ->
            decr eliminated_global;
            incr skipped_sites;
            (a, Dataflow.Elimtab.Skip)
          | Dataflow.Elimtab.Hoist (s, _, _)
            when Hashtbl.mem skipped_plan_sites s ->
            (* the widened covering check was never emitted: the site
               is uninstrumented, audit it as a degradation *)
            decr hoisted_members;
            incr skipped_sites;
            (a, Dataflow.Elimtab.Skip)
          | _ -> (a, r))
        !elim_records
  end;
  (* the elimination table ships inside the binary, like the trap
     table: every dropped check with its justification, so the
     soundness linter can audit the file alone *)
  let elimtab =
    Dataflow.Elimtab.render
      {
        Dataflow.Elimtab.backend = B.name;
        reads = opts.instrument_reads;
        writes = opts.instrument_writes;
        entries = List.sort compare !elim_records;
      }
  in
  let jump_patches = Patch.jump_patches patcher in
  let trap_patches = Patch.trap_patches patcher in
  let checks_by_kind =
    [
      ("elide.clear", bp.Blueprint.b_eliminated);
      ("elide.dom", !eliminated_global);
      ("elide.hoist", !hoisted_members);
      ("emit.full", !emit_full);
      ("emit.redzone", !emit_redzone);
      ("emit.temporal", !emit_temporal);
      ("patch.jump", jump_patches);
      ("patch.trap", trap_patches);
      ("degrade.redzone", !degraded_sites);
      ("degrade.skip", !skipped_sites);
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
      eliminated = bp.Blueprint.b_eliminated;
      eliminated_global = !eliminated_global;
      instrumented = !instrumented;
      full_sites = !full_sites;
      redzone_sites = !redzone_sites;
      temporal_sites = !temporal_sites;
      trampolines = !trampolines;
      checks_emitted = !checks_emitted;
      zero_save_sites = !zero_save_sites;
      jump_patches;
      evictions = Patch.evictions patcher;
      trap_patches;
      degraded_sites = !degraded_sites;
      skipped_sites = !skipped_sites;
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
