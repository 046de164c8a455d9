(** Rewrite-soundness linter: audit a hardened binary from the file
    alone, statically proving every memory operand is

    - {e checked} — displaced into a trampoline whose own checks cover
      its operand and displacement range;
    - {e covered} — a check emitted at a dominating patch site is
      available (same address expression, covering range, no
      redefinition or call in between) — the case of batch members
      beyond the patched span and of globally-eliminated checks;
    - {e eliminated with a recorded justification} — the [.elimtab]
      entry's rule re-verifies ([clear]: the syntactic
      never-reaches-the-heap rule; [dom]: an available dominating
      check; [hoist]: a proof-carrying loop hoist — the linter
      re-derives the access hull with the same {!Loops.member_hoist}
      the rewriter planned from, and requires the recorded hull to
      subsume the derived one {e and} the widened covering check to be
      genuinely available from the recorded preheader site);
    - {e allow-listed} — explicitly accepted by the caller; or
    - excluded by the recorded instrumentation {e policy}
      (reads/writes not instrumented).

    Additionally, every trampoline check's variant must be one the
    binary's recorded check backend ([.elimtab] [backend=] token) can
    emit — its primary plan or its degradation fallback.

    Anything else is reported as unaccounted and fails the lint.

    The audit rebuilds the original program from the hardened one: the
    trampolines in [.redfat] are decoded into units (checks, displaced
    instructions, back-jump), each unit's displaced instructions are
    re-encoded at their original addresses (recovered from the
    back-jump target), the patch entry (jump or trap) is
    cross-checked, and the block graph is re-derived with the same
    {!Graph.of_instrs} the rewriter used — so the linter's dominator
    and availability analyses run on provably the same structure the
    rewriter optimized against. *)

type status =
  | Checked
  | Covered of int          (** covering patch-site address *)
  | Eliminated_clear
  | Eliminated_dom of int   (** justifying patch-site address *)
  | Eliminated_hoist of int (** justifying preheader patch-site address *)
  | Policy_skipped
  | Degraded                (** recorded [skip] downgrade after a site fault *)
  | Allowlisted

type failure = { f_addr : int; f_reason : string }

type report = {
  total : int;              (** memory operands examined *)
  checked : int;
  covered : int;
  elim_clear : int;
  elim_dom : int;
  elim_hoist : int;         (** proved loop-hoist subsumptions *)
  policy_skipped : int;
  degraded : int;           (** recorded [skip] downgrades *)
  allowlisted : int;
  units : int;              (** trampoline units decoded *)
  failures : failure list;
}

let ok (r : report) = r.failures = []

module Int_tbl = Hashtbl.Make (Int)

(* one trampoline unit: [checks] [displaced instruction(s)] [jmp back] *)
type tunit = {
  u_tramp : int;                   (* trampoline address of the unit *)
  u_patch : int;                   (* original address of first displaced *)
  u_span : int;                    (* original bytes covered by the patch *)
  u_checks : X64.Isa.check list;
  u_displaced : X64.Isa.instr list;
}

let parse_units ~(rf_addr : int) ~(rf_len : int) (s : X64.Disasm.stream) :
    tunit list * failure list =
  let in_tramp a = a >= rf_addr && a < rf_addr + rf_len in
  let units = ref [] and errs = ref [] in
  let fail a m = errs := { f_addr = a; f_reason = m } :: !errs in
  (* the unit whose body is instructions [first, stop), closed by a
     back-jump to [back] *)
  let finish back first stop =
    if first = stop then fail back "trampoline unit with no body"
    else begin
      let u_tramp = s.addrs.(first) in
      let checks = ref [] and d = ref first in
      let rec leading_checks () =
        if !d < stop then
          match s.instrs.(!d) with
          | X64.Isa.Check ck ->
            checks := ck :: !checks;
            incr d;
            leading_checks ()
          | _ -> ()
      in
      leading_checks ();
      let rec check_after k =
        k < stop
        && match s.instrs.(k) with
           | X64.Isa.Check _ -> true
           | _ -> check_after (k + 1)
      in
      if check_after !d then
        fail u_tramp "check after displaced instruction in trampoline unit"
      else if !d = stop then
        fail u_tramp "trampoline unit displaces no instruction"
      else begin
        let span = ref 0 in
        for k = !d to stop - 1 do
          span := !span + s.lens.(k)
        done;
        units :=
          {
            u_tramp;
            u_patch = back - !span;
            u_span = !span;
            u_checks = List.rev !checks;
            u_displaced = List.init (stop - !d) (fun j -> s.instrs.(!d + j));
          }
          :: !units
      end
    end
  in
  let n = X64.Disasm.length s in
  let start = ref 0 in
  for k = 0 to n - 1 do
    match s.instrs.(k) with
    | X64.Isa.Jmp t when not (in_tramp t) ->
      finish t !start k;
      start := k + 1
    | _ -> ()
  done;
  if !start < n then
    fail s.addrs.(n - 1) "trailing trampoline code without a back-jump";
  (List.rev !units, List.rev !errs)

(* the syntactic elimination rule, re-verified independently of the
   rewriter: no index register, and either no base (absolute address
   clear of the heap) or an rsp base *)
let clear_rule (m : X64.Isa.mem) ~(bytes : int) : bool =
  m.idx = None
  && (match m.base with
     | None ->
       Lowfat.Layout.addr_range_clear_of_heap ~lo:m.disp ~hi:(m.disp + bytes)
     | Some r -> r = X64.Isa.rsp)

let run ?(allow : int list = []) ~(traps : (int * int) list)
    (binary : Binfmt.Relf.t) : (report, string) result =
  match Binfmt.Relf.find_section binary ".text" with
  | None -> Error "no .text section"
  | Some text -> (
    match Binfmt.Relf.find_section binary ".redfat" with
    | None -> Error "not a hardened binary (no .redfat section)"
    | Some rf -> (
      let etab =
        match Binfmt.Relf.find_section binary Elimtab.section_name with
        | None -> Elimtab.default
        | Some s -> Elimtab.parse s.bytes
      in
      let failures = ref [] in
      let fail a m = failures := { f_addr = a; f_reason = m } :: !failures in
      (* 1. decode the trampoline section into units *)
      let tinstrs = X64.Disasm.sweep_stream ~addr:rf.addr rf.bytes in
      let units, uerrs =
        parse_units ~rf_addr:rf.addr ~rf_len:(String.length rf.bytes) tinstrs
      in
      failures := List.rev_append uerrs !failures;
      (* the backend rule: every trampoline check must carry a variant
         the recorded backend can legitimately emit (its primary plan
         or its degradation fallback) — a temporal binary full of Full
         checks, or vice versa, is mislabelled and unauditable *)
      (match Backend.Check_backend.of_name etab.backend with
       | None ->
         fail 0
           (Printf.sprintf ".elimtab records unknown check backend %S"
              etab.backend)
       | Some b ->
         let ok_variants = Backend.Check_backend.allowed_variants b in
         List.iter
           (fun u ->
             List.iter
               (fun (ck : X64.Isa.check) ->
                 if not (List.mem ck.ck_variant ok_variants) then
                   fail u.u_patch
                     (Printf.sprintf
                        "check variant not emittable by recorded %s backend"
                        etab.backend))
               u.u_checks)
           units);
      (* 2. validate each patch entry and restore the original text *)
      let tlen = String.length text.bytes in
      let buf = Bytes.of_string text.bytes in
      let traps_tbl = Int_tbl.create 16 in
      List.iter (fun (a, t) -> Int_tbl.replace traps_tbl a t) traps;
      let units =
        List.filter
          (fun u ->
            let off = u.u_patch - text.addr in
            if off < 0 || off + u.u_span > tlen then begin
              fail u.u_tramp
                "trampoline back-jump implies a patch outside .text";
              false
            end
            else begin
              (match Int_tbl.find_opt traps_tbl u.u_patch with
              | Some t ->
                if t <> u.u_tramp then
                  fail u.u_patch "trap table disagrees with trampoline unit";
                if Char.code (Bytes.get buf off) <> X64.Encode.op_trap then
                  fail u.u_patch "trap table entry without a trap byte"
              | None ->
                let jmp =
                  X64.Encode.encode_seq ~addr:u.u_patch
                    [ X64.Isa.Jmp u.u_tramp ]
                in
                let jl = String.length jmp in
                if
                  u.u_span < jl
                  || Bytes.sub_string buf off jl <> jmp
                then
                  fail u.u_patch
                    "patched site neither jumps nor traps to its trampoline");
              let restored =
                X64.Encode.encode_seq ~addr:u.u_patch u.u_displaced
              in
              if String.length restored <> u.u_span then begin
                fail u.u_patch
                  "displaced instructions do not re-encode to the patch span";
                false
              end
              else begin
                Bytes.blit_string restored 0 buf off u.u_span;
                true
              end
            end)
          units
      in
      (* 3. re-derive the program structure the rewriter saw *)
      let graph =
        Graph.of_instrs ~entry:text.addr
          (X64.Disasm.sweep_stream ~addr:text.addr (Bytes.to_string buf))
      in
      let dom = Dom.compute graph in
      (* per instruction index: the checks discovered in trampolines,
         as availability gen facts, and the unit displacing it *)
      let n = Graph.num_instrs graph in
      let gen = Array.make n [] in
      let displaced_at = Array.make n None in
      List.iter
        (fun u ->
          match Graph.index_at graph u.u_patch with
          | None ->
            fail u.u_patch
              "patch address is not an instruction boundary after restoration"
          | Some i0 ->
            gen.(i0) <-
              (List.map
                 (fun (ck : X64.Isa.check) ->
                   ( Avail.key_of_mem ck.ck_mem,
                     {
                       Avail.lo = ck.ck_lo;
                       hi = ck.ck_hi;
                       site = i0;
                       variant = ck.ck_variant;
                     } ))
                 u.u_checks);
            (* original addresses occupied by the displaced run: each
               step is the length of the instruction the restored
               sweep decoded there, or, where none starts, of the
               displaced instruction re-encoded *)
            let some_u = Some u in
            ignore
              (List.fold_left
                 (fun a i ->
                   match Graph.index_at graph a with
                   | Some k ->
                     displaced_at.(k) <- some_u;
                     a + Graph.len graph k
                   | None -> a + X64.Encode.length i)
                 u.u_patch u.u_displaced))
        units;
      let avail = Avail.solve graph ~gen in
      (* the loop forest, for re-deriving recorded hoist hulls; lazy
         so binaries without hoist records pay nothing *)
      let loops = lazy (Loops.analyze graph dom) in
      (* records and allow-list by instruction index: an address where
         no instruction starts names no operand *)
      let elims = Array.make n None in
      List.iter
        (fun (a, r) ->
          match Graph.index_at graph a with
          | Some k -> elims.(k) <- Some r
          | None -> ())
        etab.entries;
      let allowed = Array.make n false in
      List.iter
        (fun a ->
          match Graph.index_at graph a with
          | Some k -> allowed.(k) <- true
          | None -> ())
        allow;
      (* the per-operand walks below visit indices in increasing
         order, so each block is stepped once *)
      let canon = Canon.cursor graph in
      let avail_at = Avail.cursor avail in
      (* 4. the proof obligation, per memory operand *)
      let site_addr idx = Graph.addr graph idx in
      (* the same-block fallback.  [Avail] keeps one fact per address
         key: of an unmerged batch's several checks on one key only
         one survives, and an older covering fact beats a fresh one
         even when its site does not dominate (a block no graph root
         reaches has no dominator).  Control enters a block only at
         its first instruction, so a unit earlier in the operand's
         own block whose check covers it, with no kill in between
         under {!Avail.transfer_instr}'s rule, covers it on every
         path. *)
      let covered_in_block idx key (m : X64.Isa.mem) ~bytes =
        let first =
          (Graph.block graph (Graph.block_of_instr graph idx)).Graph.first
        in
        let probe =
          let info =
            { Avail.lo = 0; hi = 0; site = -1; variant = X64.Isa.Full }
          in
          Avail.Facts [ (key, info) ]
        in
        let rec back j =
          if j < first then None
          else
            let after = Avail.transfer_instr [] (Graph.instr graph j) probe in
            if not (Avail.equal_fact after probe) then None
            else if
              List.exists
                (fun (k, (i : Avail.info)) ->
                  Avail.equal_key k key
                  && i.lo <= m.disp
                  && i.hi >= m.disp + bytes)
                gen.(j)
            then Some (site_addr j)
            else back (j - 1)
        in
        back (idx - 1)
      in
      let covered_by idx (m : X64.Isa.mem) ~bytes =
        let key = Avail.key_of_mem m in
        match Avail.find (Avail.available_at avail_at idx) key with
        | Some info
          when info.Avail.lo <= m.disp
               && info.hi >= m.disp + bytes
               && Dom.dominates_instr dom ~def:info.site ~use:idx ->
          Some (site_addr info.site)
        | _ -> covered_in_block idx key m ~bytes
      in
      let unit_checks_cover (u : tunit) (m : X64.Isa.mem) ~bytes =
        let key = Avail.key_of_mem m in
        List.exists
          (fun (ck : X64.Isa.check) ->
            Avail.equal_key (Avail.key_of_mem ck.ck_mem) key
            && ck.ck_lo <= m.disp
            && ck.ck_hi >= m.disp + bytes)
          u.u_checks
      in
      let total = ref 0 in
      let checked = ref 0 and covered = ref 0 in
      let elim_clear = ref 0 and elim_dom = ref 0 and elim_hoist = ref 0 in
      let policy_skipped = ref 0 and allowlisted = ref 0 in
      let degraded = ref 0 in
      (* the proof obligation of a recorded [hoist s lo hi] entry:
         (1) this access re-derives as hoistable (same shared
         [Loops.member_hoist] the rewriter planned from); (2) the
         recorded hull subsumes the independently derived hull — a
         tampered (narrowed) hull fails here; (3) a check over the
         widened operand covering the recorded hull is genuinely
         available from site [s], which dominates the access.  [s]
         is the preheader check, or — when global elimination
         dropped that check as itself covered — the dominating
         covering site.  (1)+(2)+(3) chain into: an emitted widened
         check covers every address this access touches across the
         loop. *)
      let audit_hoist a idx (m : X64.Isa.mem) ~bytes s rl rh =
        match Loops.member_hoist (Lazy.force loops) ~index:idx ~mem:m ~bytes with
        | None ->
          fail a
            (Printf.sprintf
               "recorded hoist at %#x cannot be re-derived as a provable \
                loop hoist"
               s)
        | Some d ->
          if not (rl <= d.Loops.h_lo && rh >= d.Loops.h_hi) then
            fail a
              (Printf.sprintf
                 "recorded hoist hull [%d,%d) does not subsume the derived \
                  access hull [%d,%d)"
                 rl rh d.Loops.h_lo d.Loops.h_hi)
          else
            match
              Avail.find
                (Avail.available_at avail_at idx)
                (Avail.key_of_mem d.Loops.h_mem)
            with
            | Some info
              when info.Avail.lo <= rl && info.hi >= rh
                   && site_addr info.site = s
                   && Dom.dominates_instr dom ~def:info.site ~use:idx ->
              incr elim_hoist
            | _ ->
              fail a
                (Printf.sprintf
                   "hoisted covering check at %#x is not available at the \
                    access"
                   s)
      in
      for idx = 0 to n - 1 do
          let a = Graph.addr graph idx in
          match X64.Isa.mem_operand (Graph.instr graph idx) with
          | None -> ()
          | Some (m, w, write) -> (
            incr total;
            (* the rewriter collected this operand in canonical form
               (copies renamed, constants folded — {!Canon}); the
               proof obligation must examine the same form *)
            let m = Canon.operand_at canon idx m in
            let bytes = X64.Isa.width_bytes w in
            let wanted = if write then etab.writes else etab.reads in
            if not wanted then incr policy_skipped
            else
              match elims.(idx) with
              | Some (Elimtab.Hoist (s, rl, rh)) ->
                (* a hoist record is always audited in full — being
                   incidentally covered by some other check would not
                   prove the recorded justification *)
                audit_hoist a idx m ~bytes s rl rh
              | record -> (
                let in_unit =
                  match displaced_at.(idx) with
                  | Some u when unit_checks_cover u m ~bytes -> true
                  | _ -> false
                in
                if in_unit then incr checked
                else
                  match covered_by idx m ~bytes with
                  | Some _site -> (
                    match record with
                    | Some (Elimtab.Dom s) ->
                      incr elim_dom;
                      ignore s
                    | _ -> incr covered)
                  | None -> (
                    match record with
                    | Some Elimtab.Clear ->
                      if clear_rule m ~bytes then incr elim_clear
                      else
                        fail a
                          "recorded 'clear' elimination fails the syntactic \
                           rule"
                    | Some (Elimtab.Dom s) ->
                      fail a
                        (Printf.sprintf
                           "recorded dominating check at %#x is not available"
                           s)
                    | Some Elimtab.Skip -> incr degraded
                    | Some (Elimtab.Hoist _) -> assert false (* handled above *)
                    | None ->
                      if allowed.(idx) then incr allowlisted
                      else fail a "unaccounted memory access")))
      done;
      Ok
        {
          total = !total;
          checked = !checked;
          covered = !covered;
          elim_clear = !elim_clear;
          elim_dom = !elim_dom;
          elim_hoist = !elim_hoist;
          policy_skipped = !policy_skipped;
          degraded = !degraded;
          allowlisted = !allowlisted;
          units = List.length units;
          failures = List.rev !failures;
          }))

let pp_report fmt (r : report) =
  Format.fprintf fmt
    "@[<v>memory operands:   %d@,\
     checked in unit:   %d@,\
     covered by dom:    %d@,\
     eliminated clear:  %d@,\
     eliminated dom:    %d@,\
     eliminated hoist:  %d@,\
     policy skipped:    %d@,\
     degraded (skip):   %d@,\
     allow-listed:      %d@,\
     trampoline units:  %d@,\
     unaccounted:       %d@]"
    r.total r.checked r.covered r.elim_clear r.elim_dom r.elim_hoist
    r.policy_skipped r.degraded r.allowlisted r.units
    (List.length r.failures)
