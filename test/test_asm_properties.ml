(* Binary-level property tests: random straight-line assembly programs
   with in-bounds heap accesses of every width and operand shape —
   including the W2/W4 widths, Store_i, and segment-carrying operands
   that the MiniC compiler never emits. *)

open X64

(* A generated program: allocate one 256-byte object into rbx, run a
   random list of in-bounds accesses over it (offsets in [0, 248],
   random widths, random operand shapes), accumulate loads into r15,
   print r15, return. *)

type access = {
  off : int;              (* 0..248, the accessed displacement *)
  width : Isa.width;
  shape : int;            (* 0: disp(base)  1: (base,idx,1)  2: disp(base,idx,scale) *)
  store : int;            (* 0: load  1: store reg  2: store imm *)
  seg : int;              (* 0 or 1 (segments resolve to 0 in the VM) *)
}

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let gen_access =
  QCheck.Gen.(
    let* off = int_range 0 31 >|= fun k -> k * 8 in
    let* width = oneofl [ Isa.W1; Isa.W2; Isa.W4; Isa.W8 ] in
    let* shape = int_range 0 2 in
    let* store = int_range 0 2 in
    let* seg = oneofl [ 0; 0; 0; 1 ] in
    return { off; width; shape; store; seg })

let gen_program = QCheck.Gen.(list_size (int_range 1 25) gen_access)

let instr_of_access (a : access) : Isa.instr list =
  (* build the operand so that its effective address = rbx + off *)
  let mem, setup =
    match a.shape with
    | 0 -> (Isa.mem ~seg:a.seg ~disp:a.off ~base:Isa.rbx (), [])
    | 1 ->
      (* idx register carries the offset *)
      ( Isa.mem ~seg:a.seg ~base:Isa.rbx ~idx:Isa.rcx ~scale:1 (),
        [ Isa.Mov_ri (Isa.rcx, a.off) ] )
    | _ ->
      (* disp + idx*8 splits the offset *)
      let idx_part = a.off / 8 in
      let disp = a.off - (idx_part * 8) in
      ( Isa.mem ~seg:a.seg ~disp ~base:Isa.rbx ~idx:Isa.rcx ~scale:8 (),
        [ Isa.Mov_ri (Isa.rcx, idx_part) ] )
  in
  setup
  @
  match a.store with
  | 0 ->
    [ Isa.Load (a.width, Isa.rdx, mem);
      Isa.Alu_rr (Isa.Add, Isa.r15, Isa.rdx) ]
  | 1 ->
    [ Isa.Mov_ri (Isa.rdx, a.off * 3); Isa.Store (a.width, mem, Isa.rdx) ]
  | _ -> [ Isa.Store_i (a.width, mem, (a.off * 7) land 0x7fffffff) ]

let program_of (accesses : access list) : Binfmt.Relf.t =
  let body =
    [ Isa.Mov_ri (Isa.rdi, 256); Isa.Callrt Isa.Malloc;
      Isa.Mov_rr (Isa.rbx, Isa.rax); Isa.Mov_ri (Isa.r15, 0) ]
    @ List.concat_map instr_of_access accesses
    @ [ Isa.Mov_rr (Isa.rdi, Isa.r15); Isa.Callrt Isa.Print; Isa.Ret ]
  in
  let code = Encode.encode_seq ~addr:Lowfat.Layout.code_base body in
  {
    Binfmt.Relf.entry = Lowfat.Layout.code_base;
    pic = false;
    stripped = true;
    sections =
      [ Binfmt.Relf.section ~executable:true ~name:".text"
          ~addr:Lowfat.Layout.code_base code ];
  }

let arb_program =
  QCheck.make gen_program
    ~print:(fun accs ->
      String.concat "; "
        (List.map
           (fun a ->
             Printf.sprintf "{off=%d w=%d shape=%d st=%d seg=%d}" a.off
               (Isa.width_bytes a.width) a.shape a.store a.seg)
           accs))

(* every optimization level preserves outputs and reports no errors *)
let prop_asm_preservation =
  QCheck.Test.make ~count:150 ~name:"asm-level rewriting preserves semantics"
    arb_program
    (fun accs ->
      let bin = program_of accs in
      let { Redfat.run = base; verdict = bv; _ } = Redfat.run bin Baseline in
      (match bv with Redfat.Finished _ -> () | _ -> QCheck.assume_fail ());
      List.for_all
        (fun opts ->
          let hard = Redfat.harden ~opts bin in
          let hr = Redfat.run hard.binary libredfat in
          match hr.verdict with
          | Redfat.Finished _ -> hr.run.outputs = base.outputs
          | _ -> false)
        [ Rewriter.Rewrite.unoptimized; Rewriter.Rewrite.with_elim;
          Rewriter.Rewrite.with_batch; Rewriter.Rewrite.optimized ])

(* pushing any access out of bounds is detected at every level *)
let prop_asm_oob_detected =
  QCheck.Test.make ~count:100 ~name:"asm-level overflow always detected"
    QCheck.(pair arb_program (make Gen.(int_range 0 24)))
    (fun (accs, pos) ->
      match accs with
      | [] -> true
      | _ ->
        (* corrupt one access to reach past the object (offset 256+) *)
        let k = pos mod List.length accs in
        let accs =
          List.mapi
            (fun j a ->
              if j = k then { a with off = 256 + 48; store = 1; seg = 0 }
              else a)
            accs
        in
        let bin = program_of accs in
        List.for_all
          (fun opts ->
            let hard = Redfat.harden ~opts bin in
            match (Redfat.run hard.binary libredfat).verdict with
            | Redfat.Detected _ -> true
            | _ -> false)
          [ Rewriter.Rewrite.unoptimized; Rewriter.Rewrite.optimized ])

(* stats invariants hold for arbitrary programs *)
let prop_stats_invariants =
  QCheck.Test.make ~count:150 ~name:"rewriter stats invariants" arb_program
    (fun accs ->
      let bin = program_of accs in
      let r = Redfat.harden bin in
      let s = r.stats in
      s.instrumented = s.full_sites + s.redzone_sites + s.temporal_sites
      && s.trampolines = s.jump_patches + s.trap_patches
      && s.checks_emitted <= s.instrumented (* merging only reduces *)
      && s.eliminated + s.instrumented <= s.mem_ops
      && List.length r.traps = s.trap_patches)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_asm_preservation;
    QCheck_alcotest.to_alcotest prop_asm_oob_detected;
    QCheck_alcotest.to_alcotest prop_stats_invariants;
  ]
