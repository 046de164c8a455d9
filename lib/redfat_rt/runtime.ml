(** The libredfat.so runtime: the redzone-wrapping allocator (paper
    Figure 3) and the complementary (Redzone)+(LowFat) check (Figure 4).

    In the real system this library is LD_PRELOAD'ed under the hardened
    binary; here it plugs into the VM as the [Callrt] dispatch table and
    the [on_check] hook. *)

let redzone = 16

type error_kind =
  | Use_after_free
  | Oob_lower
  | Oob_upper
  | Corrupt_meta
  | Key_mismatch   (* temporal: pointer tag does not match the live lock *)
  | Double_free    (* temporal: freed pointer's key already invalidated *)
type access_error = {
  site : int;          (** address of the guarded instruction *)
  kind : error_kind;
  addr : int;          (** lower bound of the offending access *)
}

exception Memory_error of access_error
exception Bad_free of int

let kind_name = function
  | Use_after_free -> "use-after-free"
  | Oob_lower -> "out-of-bounds (lower)"
  | Oob_upper -> "out-of-bounds (upper)"
  | Corrupt_meta -> "corrupted metadata"
  | Key_mismatch -> "key mismatch (stale pointer)"
  | Double_free -> "double free"

(** [Harden] aborts on the first error (production); [Log] records
    unique (site, kind) pairs and continues (bug finding / profiling). *)
type mode = Harden | Log

(** How the redzone component implements state(ptr) (paper §4.1):
    [Lowfat_meta] stores state/size inside the redzone and reuses the
    low-fat [base] computation (RedFat's design); [Asan_shadow] is the
    AddressSanitizer-style separate shadow map, kept as an ablation. *)
type state_impl = Lowfat_meta | Asan_shadow

type options = {
  lowfat : bool;       (** derive the base from the pointer register
                           (the LowFat component); off = redzone-only *)
  size_harden : bool;  (** validate stored SIZE against size(BASE)
                           (Figure 4 lines 23-24) *)
  merged_ub : bool;    (** single-branch bounds check via the uint32
                           underflow trick (paper §4.2) *)
  check_reads : bool;  (** instrument read accesses (-reads disables) *)
  state_impl : state_impl;
  mode : mode;
  backend : Backend.Check_backend.id;
      (** the check backend whose runtime semantics this instance
          provides.  [Temporal] switches the allocator to lock-and-key
          mode: malloc returns tagged pointers and records a key in the
          lock table, free validates and invalidates the key. *)
  random : int option;
      (** heap randomization seed (paper §8); [None] places objects
          deterministically *)
}

let default_options =
  { lowfat = true; size_harden = true; merged_ub = true; check_reads = true;
    state_impl = Lowfat_meta; mode = Harden;
    backend = Backend.Check_backend.default; random = None }

type profile_entry = { mutable executed : int; mutable lowfat_failed : int }

type t = {
  alloc : Lowfat.Alloc.t;
  mem : Vm.Mem.t;
  opts : options;
  mutable errors : access_error list;     (* unique, reverse order *)
  seen : (int * error_kind, unit) Hashtbl.t;
  profile : (int, profile_entry) Hashtbl.t option;
      (** site statistics, present in profiling runs (paper §5) *)
  (* dynamic coverage counters (Table 1 "coverage" column) *)
  mutable full_checks : int;
  mutable redzone_checks : int;
  mutable temporal_checks : int;
  mutable nonfat_skips : int;
  shadow : Shadow.t;  (** only populated under [Asan_shadow] *)
  locks : (int, int) Hashtbl.t;
      (** temporal backend: live key per object slot base; 0 = freed.
          The model of libredfat's lock table, invalidated on free so
          stale tagged pointers fail their key comparison. *)
  mutable next_key : int;  (** temporal: next allocation key (cycles) *)
}

let create ?(options = default_options) ?(profiling = false)
    (mem : Vm.Mem.t) : t =
  {
    alloc = Lowfat.Alloc.create ?random:options.random mem;
    mem;
    opts = options;
    errors = [];
    seen = Hashtbl.create 64;
    profile = (if profiling then Some (Hashtbl.create 256) else None);
    full_checks = 0;
    redzone_checks = 0;
    temporal_checks = 0;
    nonfat_skips = 0;
    shadow = Shadow.create ();
    locks = Hashtbl.create 64;
    next_key = 1;
  }

let errors t = List.rev t.errors

let error t ~site ~kind ~addr =
  let e = { site; kind; addr } in
  match t.opts.mode with
  | Harden -> raise (Memory_error e)
  | Log ->
    if not (Hashtbl.mem t.seen (site, kind)) then begin
      Hashtbl.add t.seen (site, kind) ();
      t.errors <- e :: t.errors
    end

(* --- the allocator wrapper (Figure 3) ------------------------------ *)

(** malloc(SIZE) = lowfat_malloc(SIZE+16) + 16.  The prepended 16 bytes
    are the redzone, doubling as shadow storage for the object's
    state/size word: SIZE > 0 means Allocated, SIZE = 0 means Free
    (the "mergeable code" encoding of §4.2).

    Under the [Temporal] backend the returned pointer additionally
    carries a fresh nonzero key in its tag bits, and the key is
    recorded in the lock table against the slot base. *)
let malloc t n =
  let n = max n 1 in
  let base = Lowfat.Alloc.malloc t.alloc (n + redzone) in
  Vm.Mem.write t.mem ~addr:base ~len:8 n;
  if t.opts.state_impl = Asan_shadow then
    Shadow.mark_allocated t.shadow ~addr:(base + redzone) ~len:n;
  if t.opts.backend = Backend.Check_backend.Temporal then begin
    let key = t.next_key in
    t.next_key <-
      (if key >= Backend.Check_backend.max_key then 1 else key + 1);
    Hashtbl.replace t.locks base key;
    (base + redzone) lor (key lsl Backend.Check_backend.tag_shift)
  end
  else base + redzone

(** [site] is the caller's code address, used to attribute temporal
    free errors ([Double_free]); those go through [error], so [Log]
    mode records them and skips the free instead of aborting. *)
let free ?(site = 0) t ptr =
  if t.opts.backend = Backend.Check_backend.Temporal then begin
    let key = Backend.Check_backend.tag_of ptr in
    let p = Backend.Check_backend.untag ptr in
    if p = 0 then () (* free(NULL) is a no-op *)
    else begin
      let base = p - redzone in
      let lock =
        match Hashtbl.find_opt t.locks base with Some k -> k | None -> -1
      in
      if lock <= 0 || lock <> key then
        (* the lock is gone (freed) or belongs to a newer allocation:
           a double free / free through a stale pointer *)
        error t ~site ~kind:Double_free ~addr:p
      else begin
        Hashtbl.replace t.locks base 0;
        Vm.Mem.write t.mem ~addr:base ~len:8 0;
        Lowfat.Alloc.free t.alloc base
      end
    end
  end
  else if ptr = 0 then () (* free(NULL) is a no-op *)
  else begin
    let base = ptr - redzone in
    let stored =
      if Vm.Mem.is_mapped t.mem base then Vm.Mem.read t.mem ~addr:base ~len:8
      else -1
    in
    if stored <= 0 then raise (Bad_free ptr);
    Vm.Mem.write t.mem ~addr:base ~len:8 0;
    if t.opts.state_impl = Asan_shadow then
      Shadow.mark_freed t.shadow ~addr:ptr ~len:stored;
    Lowfat.Alloc.free t.alloc base
  end

(* --- the check (Figure 4) ------------------------------------------ *)

(** Structural micro-op costs of the check's assembly, used by the VM
    cost model.  The constants now live in the backend layer (they are
    also the static cost model the planner consults); this alias keeps
    the runtime's historical [Runtime.Cost] name working. *)
module Cost = Backend.Check_backend.Cost

let profile_entry t site =
  match t.profile with
  | None -> None
  | Some tbl ->
    (match Hashtbl.find_opt tbl site with
     | Some e -> Some e
     | None ->
       let e = { executed = 0; lowfat_failed = 0 } in
       Hashtbl.add tbl site e;
       Some e)

(* Bounds test shared by the production check and the profiling
   simulation of the pure (LowFat) component.  Returns the failure, if
   any, for object [base] (redzone at [base, base+16)) and access
   [lb, ub).  [size < 0] encodes unmapped metadata. *)
let judge ~meta_size ~lf_size ~size_harden ~base ~lb ~ub =
  let obj = base + redzone in
  if size_harden && (meta_size < 0 || meta_size > lf_size - redzone) then
    Some Corrupt_meta
  else if meta_size <= 0 then Some Use_after_free
  else if lb < obj then Some Oob_lower
  else if ub > obj + meta_size then Some Oob_upper
  else None

(** The lock-and-key temporal check: recover the key from the guarded
    pointer's tag bits and the lock from the runtime's lock table
    (keyed by the object's slot base); the access is valid only if it
    stays within the slot and the key still matches the live lock.
    Freed slots hold lock 0 (never a valid key) and reallocated slots
    hold a fresh key, so dangling pointers fail either way — no
    quarantine needed. *)
let check_temporal t (ck : X64.Isa.check) ~lb ~ub cost : int =
  let key = Backend.Check_backend.tag_of lb in
  let alb = Backend.Check_backend.untag lb in
  let aub = Backend.Check_backend.untag ub in
  cost := !cost + Cost.lowfat_base + Cost.null_test;
  let slot = Lowfat.Layout.base alb in
  if slot = 0 then begin
    (* non-fat pointer: nothing to check *)
    t.nonfat_skips <- t.nonfat_skips + 1;
    !cost
  end
  else begin
    t.temporal_checks <- t.temporal_checks + 1;
    cost :=
      !cost + Cost.lock_lookup + Cost.key_check
      + if t.opts.merged_ub then Cost.bounds_merged else Cost.bounds_branchy;
    let verdict =
      (* slot-granular bounds first: an access that escapes the slot
         would consult some other object's lock *)
      if Lowfat.Layout.base (aub - 1) <> slot then Some Oob_upper
      else if alb < slot + redzone then Some Oob_lower
      else begin
        let lock =
          match Hashtbl.find_opt t.locks slot with Some k -> k | None -> 0
        in
        if lock = 0 then Some Use_after_free
        else if lock <> key then Some Key_mismatch
        else None
      end
    in
    (match verdict with
     | Some kind -> error t ~site:ck.ck_site ~kind ~addr:alb
     | None -> ());
    !cost
  end

(** Execute the Figure 4 check for payload [ck]; returns the cycle cost
    of the executed path.  Reads the guarded pointer and index straight
    from the CPU registers, exactly as the trampoline assembly does. *)
let check t (cpu : Vm.Cpu.t) (ck : X64.Isa.check) : int =
  let m = ck.ck_mem in
  (* Step 1: the access range.  ptr is the base register (the pointer
     whose arithmetic the LowFat component validates); i is the rest of
     the operand. *)
  let ptr = match m.base with Some r -> cpu.regs.(r) | None -> 0 in
  let iv = match m.idx with Some r -> cpu.regs.(r) * m.scale | None -> 0 in
  let lb = ptr + iv + ck.ck_lo in
  let ub = ptr + iv + ck.ck_hi in
  let cost = ref (Cost.access_range + (Cost.per_save * ck.ck_nsaves)) in
  if ck.ck_save_flags then cost := !cost + Cost.flags_save;
  if ck.ck_variant = X64.Isa.Temporal then check_temporal t ck ~lb ~ub cost
  else begin
  (* Step 2: object base, from ptr first (LowFat), falling back to the
     accessed address (Redzone). *)
  let lowfat_on = t.opts.lowfat && ck.ck_variant = X64.Isa.Full in
  let base_ptr = if lowfat_on then Lowfat.Layout.base ptr else 0 in
  if lowfat_on then cost := !cost + Cost.lowfat_base + Cost.null_test;
  let via_lowfat = base_ptr <> 0 in
  let base =
    if via_lowfat then base_ptr
    else begin
      cost := !cost + Cost.lowfat_base + Cost.null_test;
      Lowfat.Layout.base lb
    end
  in
  (* profiling bookkeeping happens before any early exit *)
  (match profile_entry t ck.ck_site with
   | None -> ()
   | Some e ->
     e.executed <- e.executed + 1;
     (* the pure (LowFat) verdict: would ptr-based checking flag it? *)
     if base_ptr <> 0 then begin
       let meta_size =
         if Vm.Mem.is_mapped t.mem base_ptr then
           Vm.Mem.read t.mem ~addr:base_ptr ~len:8
         else -1
       in
       let lf_size = Lowfat.Layout.size base_ptr in
       match
         judge ~meta_size ~lf_size ~size_harden:false ~base:base_ptr ~lb ~ub
       with
       | Some _ -> e.lowfat_failed <- e.lowfat_failed + 1
       | None -> ()
     end);
  if base = 0 then begin
    (* non-fat pointer: nothing to check *)
    t.nonfat_skips <- t.nonfat_skips + 1;
    !cost
  end
  else begin
    ignore via_lowfat;
    (* coverage accounting (Table 1): which instrumentation covered this
       dynamically-reached heap access *)
    if ck.ck_variant = X64.Isa.Full && t.opts.lowfat then
      t.full_checks <- t.full_checks + 1
    else t.redzone_checks <- t.redzone_checks + 1;
    match t.opts.state_impl with
    | Asan_shadow ->
      (* the §4.1 ablation: redzone state from a separate shadow map.
         Bounds can only use the (class-granular) low-fat size, so
         padding overflows are missed, and every access pays a
         per-granule shadow scan on top of the base computation. *)
      let lf_size = Lowfat.Layout.size base in
      let obj = base + redzone in
      cost := !cost + if t.opts.merged_ub then Cost.bounds_merged
                      else Cost.bounds_branchy;
      let verdict =
        if lb < obj then Some Oob_lower
        else if ub > base + lf_size then Some Oob_upper
        else begin
          let bad, scan_cost = Shadow.check_range t.shadow ~lb ~ub in
          cost := !cost + scan_cost;
          match bad with
          | None -> None
          | Some Shadow.Free -> Some Use_after_free
          | Some Shadow.Redzone ->
            Some (if lb < obj then Oob_lower else Oob_upper)
          | Some Shadow.Allocated -> None
        end
      in
      (match verdict with
       | Some kind -> error t ~site:ck.ck_site ~kind ~addr:lb
       | None -> ());
      !cost
    | Lowfat_meta ->
    (* Steps 3-4: metadata, then the merged checks *)
    cost := !cost + Cost.metadata_load;
    if t.opts.size_harden then cost := !cost + Cost.size_harden;
    cost :=
      !cost + if t.opts.merged_ub then Cost.bounds_merged else Cost.bounds_branchy;
    let meta_size =
      if Vm.Mem.is_mapped t.mem base then Vm.Mem.read t.mem ~addr:base ~len:8
      else -1
    in
    let lf_size = Lowfat.Layout.size base in
    let verdict =
      if t.opts.merged_ub then begin
        (* the single-branch form: UB' underflows to a huge value when
           LB is below the object start, so one comparison suffices *)
        let obj = base + redzone in
        let span = ub - lb in
        let delta = (lb - obj) land 0xffff_ffff in
        if t.opts.size_harden && (meta_size < 0 || meta_size > lf_size - redzone)
        then Some Corrupt_meta
        else if meta_size < 0 then Some Use_after_free
        else if obj + delta + span > obj + meta_size then
          Some
            (if meta_size = 0 then Use_after_free
             else if lb < obj then Oob_lower
             else Oob_upper)
        else None
      end
      else
        judge ~meta_size ~lf_size ~size_harden:t.opts.size_harden ~base ~lb ~ub
    in
    (match verdict with
     | Some kind -> error t ~site:ck.ck_site ~kind ~addr:lb
     | None -> ());
    !cost
  end
  end

(* --- plugging into the VM ------------------------------------------ *)

let vm_runtime (t : t) : Vm.Cpu.runtime =
  {
    Vm.Cpu.rt_malloc = (fun _cpu n -> malloc t n);
    rt_free = (fun cpu p -> free ~site:cpu.Vm.Cpu.rip t p);
    rt_name = "libredfat";
  }

let install (t : t) (cpu : Vm.Cpu.t) : Vm.Cpu.runtime =
  cpu.on_check <- Some (fun cpu ck -> check t cpu ck);
  (* a pointer-tagging backend needs the VM to mask data accesses so
     tagged pointers still address their untagged memory *)
  let (module B) = Backend.Check_backend.of_id t.opts.backend in
  cpu.addr_mask <-
    (if B.contract.Backend.Check_backend.tags_pointers then
       Backend.Check_backend.addr_mask
     else -1);
  vm_runtime t

(** Allow-list extraction after a profiling run: sites that executed
    and never failed the (LowFat) component (paper §5). *)
let allowlist t : int list =
  match t.profile with
  | None -> invalid_arg "Runtime.allowlist: not a profiling runtime"
  | Some tbl ->
    Hashtbl.fold
      (fun site e acc ->
        if e.executed > 0 && e.lowfat_failed = 0 then site :: acc else acc)
      tbl []
    |> List.sort compare

(** Sites observed to fail the (LowFat) component at least once: the
    would-be false positives (paper §7.1). *)
let lowfat_failing_sites t : int list =
  match t.profile with
  | None -> []
  | Some tbl ->
    Hashtbl.fold
      (fun site e acc -> if e.lowfat_failed > 0 then site :: acc else acc)
      tbl []
    |> List.sort compare

(** Human-readable diagnosis of an error: the object involved, its
    bounds, and how far outside them the access fell (what the real
    tool prints before aborting). *)
let explain t (e : access_error) : string =
  match e.kind with
  | Use_after_free when t.opts.backend = Backend.Check_backend.Temporal ->
    Printf.sprintf
      "%s: access at %#x hits slot %#x whose lock was invalidated by \
       free; guarded instruction at %#x"
      (kind_name e.kind) e.addr (Lowfat.Layout.base e.addr) e.site
  | Key_mismatch ->
    Printf.sprintf
      "%s: access at %#x carries a key that no longer matches slot \
       %#x's lock (the slot was reallocated); guarded instruction at \
       %#x"
      (kind_name e.kind) e.addr (Lowfat.Layout.base e.addr) e.site
  | Double_free ->
    Printf.sprintf
      "%s: free of %#x found slot %#x's lock already invalidated; \
       free call at %#x"
      (kind_name e.kind) e.addr (Lowfat.Layout.base e.addr) e.site
  | _ ->
  let base = Lowfat.Layout.base e.addr in
  if base = 0 then
    Printf.sprintf "%s: access at %#x (non-fat memory) from site %#x"
      (kind_name e.kind) e.addr e.site
  else begin
    let meta =
      if Vm.Mem.is_mapped t.mem base then Vm.Mem.read t.mem ~addr:base ~len:8
      else -1
    in
    let obj = base + redzone in
    let size_txt =
      if meta < 0 then "an unallocated slot"
      else if meta = 0 then "a freed object"
      else Printf.sprintf "a %d-byte object" meta
    in
    let rel =
      if e.addr < obj then Printf.sprintf "%d bytes below" (obj - e.addr)
      else if meta > 0 && e.addr >= obj + meta then
        Printf.sprintf "%d bytes past the end of" (e.addr - (obj + meta))
      else
        (* the address lands cleanly inside some OTHER object: the
           signature of a non-incremental overflow that skipped its own
           object's bounds and every redzone on the way *)
        "(a non-incremental skip) inside"
    in
    Printf.sprintf
      "%s: access at %#x is %s %s at [%#x, %#x) (slot %d bytes); \
       guarded instruction at %#x"
      (kind_name e.kind) e.addr rel size_txt obj
      (obj + max meta 0)
      (Lowfat.Layout.size base) e.site
  end

let coverage_percent t =
  let total = t.full_checks + t.redzone_checks + t.temporal_checks in
  let primary = t.full_checks + t.temporal_checks in
  if total = 0 then 0.0
  else 100.0 *. float_of_int primary /. float_of_int total
