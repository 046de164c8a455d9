(* Hash-consed instrumentation blueprints: the address-independent
   half of a rewrite, interned process-globally by text shape.  See
   blueprint.mli for the sharing/soundness argument. *)

type bgroup = {
  bg_variant : X64.Isa.variant;
  bg_mem : X64.Isa.mem;
  bg_lo : int;
  bg_hi : int;
  bg_write : bool;
  bg_site : int;
  bg_members : (int * X64.Isa.variant) list;
}

type bplan = {
  bp_first : int;
  bp_tactic : Patch.tactic;
  bp_displaced : int list;
  bp_nsaves : int;
  bp_save_flags : bool;
  bp_groups : bgroup list;
}

type t = {
  b_plans : bplan list;
  b_records : (int * Dataflow.Elimtab.reason) list;
  b_dropped : int list;
  b_mem_ops : int;
}

(* --- the shape key --------------------------------------------------- *)

(* Planning reads absolute addresses through exactly two channels:
   intra-text control-flow targets (leaders, CFG edges, loop
   structure) and Mov_ri constants (potential indirect-target leaders;
   Canon folds them into operand displacements).  Targets are rewritten
   to text-relative offsets — an out-of-text call target is collapsed
   to a sentinel, since planning only cares that it is out of text —
   and a Mov_ri constant pointing into the text pins the key to the
   exact text_addr: its folded value reaches merge keys and range
   analysis, so such a shape may only be shared at the same address. *)
let shape_key ~opts_key ~text_addr ~text_end (s : X64.Disasm.stream) :
    string =
  let in_range v = v >= text_addr && v < text_end in
  let pinned = ref (-1) in
  let tags = Bytes.make (X64.Disasm.length s) 'v' in
  let abstract =
    Array.mapi
      (fun k instr ->
        match instr with
        | X64.Isa.Jmp t when in_range t ->
          Bytes.set tags k 'o';
          X64.Isa.Jmp (t - text_addr)
        | X64.Isa.Jcc (cc, t) when in_range t ->
          Bytes.set tags k 'o';
          X64.Isa.Jcc (cc, t - text_addr)
        | X64.Isa.Call t when in_range t ->
          Bytes.set tags k 'o';
          X64.Isa.Call (t - text_addr)
        | X64.Isa.Call _ ->
          Bytes.set tags k 'x';
          X64.Isa.Call 0
        | X64.Isa.Mov_ri (r, v) when in_range v ->
          pinned := text_addr;
          Bytes.set tags k 'c';
          X64.Isa.Mov_ri (r, v - text_addr)
        | i -> i)
      s.instrs
  in
  (* the abstracted stream is acyclic, so marshalling it without
     sharing terminates and makes the key a function of its structure
     alone; the key never leaves this process's table *)
  Marshal.to_string
    (opts_key, !pinned, tags, abstract, s.lens)
    [ Marshal.No_sharing ]

(* --- the interning table --------------------------------------------- *)

(* Guarded lookups, unguarded builds (two domains racing on a fresh
   shape both build the same deterministic value; first insert wins).
   The cap bounds daemon memory: past it, shapes are rebuilt per call
   rather than retained. *)
let table : (string, t) Hashtbl.t = Hashtbl.create 256
let lock = Mutex.create ()
let cap = 8192

let bump obs name =
  match obs with Some o -> Obs.add o name | None -> ()

(* the table's own work — hashing the key, comparing it on a hit,
   inserting it after a build — is span [rw.blueprint]; the build
   records its own spans *)
let sp obs f =
  match obs with
  | Some o -> Obs.span o ~cat:"rewrite" "rw.blueprint" f
  | None -> f ()

let find_or_build ?obs ~key build =
  let cached =
    sp obs @@ fun () ->
    Mutex.lock lock;
    let r = Hashtbl.find_opt table key in
    Mutex.unlock lock;
    r
  in
  match cached with
  | Some bp ->
    bump obs "blueprint.hit";
    bp
  | None ->
    bump obs "blueprint.miss";
    let bp = build () in
    let fresh =
      sp obs @@ fun () ->
      Mutex.lock lock;
      let f =
        (not (Hashtbl.mem table key)) && Hashtbl.length table < cap
      in
      if f then Hashtbl.replace table key bp;
      Mutex.unlock lock;
      f
    in
    if fresh then bump obs "blueprint.unique";
    bp

let size () =
  Mutex.lock lock;
  let n = Hashtbl.length table in
  Mutex.unlock lock;
  n

let reset () =
  Mutex.lock lock;
  Hashtbl.reset table;
  Mutex.unlock lock
