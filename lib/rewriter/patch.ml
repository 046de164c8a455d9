(* The patch layer shared by the hardening rewriter, shard reassembly
   and probe instrumentation; see patch.mli. *)

type tactic = Jump | Trap

let jmp_len = 5

let decide (g : Dataflow.Graph.t) ~is_start i =
  let n = Dataflow.Graph.num_instrs g in
  let l0 = Dataflow.Graph.len g i in
  (* successor eviction (E9Patch tactic T3) until the run spans a jump *)
  let rec evict k span run =
    if span >= jmp_len then (Jump, List.rev run)
    else if k >= n then (Trap, [ i ])
    else
      if
        Dataflow.Graph.is_leader g (Dataflow.Graph.addr g k)
        || is_start k
        || not (X64.Isa.falls_through (Dataflow.Graph.instr g k))
      then (Trap, [ i ])
      else evict (k + 1) (span + Dataflow.Graph.len g k) (k :: run)
  in
  evict (i + 1) l0 [ i ]

type t = {
  stream : X64.Disasm.stream;
  text_addr : int;
  text : Bytes.t;
  tramp_base : int;
  tramp : Buffer.t;
  mutable traps : (int * int) list;  (* newest first *)
  mutable jump_patches : int;
  mutable evictions : int;
  mutable trap_patches : int;
}

let create ~tramp_base (text : Binfmt.Relf.section) stream =
  {
    stream;
    text_addr = text.addr;
    text = Bytes.of_string text.bytes;
    tramp_base;
    tramp = Buffer.create 4096;
    traps = [];
    jump_patches = 0;
    evictions = 0;
    trap_patches = 0;
  }

(* start address and byte length of a displaced run *)
let run p displaced =
  ( p.stream.addrs.(List.hd displaced),
    List.fold_left (fun s k -> s + p.stream.lens.(k)) 0 displaced )

let trampoline p ~payload ~displaced =
  let at = Buffer.length p.tramp in
  let put i =
    X64.Encode.encode_at p.tramp (p.tramp_base + Buffer.length p.tramp) i
  in
  let a0, span = run p displaced in
  (try
     List.iter put payload;
     List.iter (fun k -> put p.stream.instrs.(k)) displaced;
     put (X64.Isa.Jmp (a0 + span))
   with e ->
     Buffer.truncate p.tramp at;
     raise e);
  p.tramp_base + at

let patch p tactic ~displaced ~tramp =
  let a0, span = run p displaced in
  let off = a0 - p.text_addr in
  match tactic with
  | Jump ->
    let jmp = X64.Encode.encode_seq ~addr:a0 [ X64.Isa.Jmp tramp ] in
    Bytes.blit_string jmp 0 p.text off jmp_len;
    Bytes.fill p.text (off + jmp_len) (span - jmp_len)
      (Char.chr X64.Encode.op_nop);
    p.jump_patches <- p.jump_patches + 1;
    p.evictions <- p.evictions + List.length displaced - 1
  | Trap ->
    Bytes.set p.text off (Char.chr X64.Encode.op_trap);
    p.trap_patches <- p.trap_patches + 1;
    p.traps <- (a0, tramp) :: p.traps

let jump_patches p = p.jump_patches
let evictions p = p.evictions
let trap_patches p = p.trap_patches
let traps p = List.rev p.traps
let tramp_bytes p = Buffer.contents p.tramp

(* --- the .traptab codec ---------------------------------------------- *)

let render_traps traps =
  String.concat ""
    (List.map (fun (a, t) -> Printf.sprintf "%x %x\n" a t) traps)

let parse_traps s =
  let r = Binfmt.Reader.create ~src:".traptab" s in
  let rec go acc =
    match Binfmt.Reader.line r with
    | None -> List.rev acc
    | Some line -> (
      match String.split_on_char ' ' line with
      | [ a; t ] ->
        let a = Binfmt.Reader.hex r a in
        go ((a, Binfmt.Reader.hex r t) :: acc)
      | _ ->
        Binfmt.Reader.fail r Binfmt.Reader.Section
          (Printf.sprintf "bad entry %S" line))
  in
  go []

let traps_of_binary (b : Binfmt.Relf.t) =
  match Binfmt.Relf.find_section b ".traptab" with
  | None -> []
  | Some s -> parse_traps s.bytes

(* --- section assembly ------------------------------------------------ *)

let assemble (binary : Binfmt.Relf.t) ~text ~name ~tramp_base ~tramp
    ?(extra = []) traps =
  let sections =
    List.map
      (fun (s : Binfmt.Relf.section) ->
        if s.name = ".text" then { s with bytes = text } else s)
      binary.sections
    @ Binfmt.Relf.section ~executable:true ~name ~addr:tramp_base tramp
      :: extra
    @
    if traps = [] then []
    else [ Binfmt.Relf.section ~name:".traptab" ~addr:0 (render_traps traps) ]
  in
  { binary with sections }

let finish p ~name ?extra binary =
  assemble binary ~text:(Bytes.to_string p.text) ~name ~tramp_base:p.tramp_base
    ~tramp:(tramp_bytes p) ?extra (traps p)
