(* Loop-aware check hoisting: back-edge queries, the irreducible-CFG
   fallback, the proof-carrying [hoist] elimtab records, hoist-off
   parity with the seed rewriter, and end-to-end effectiveness with
   behaviour preservation. *)

open X64
module Df = Dataflow
module Rw = Rewriter.Rewrite
module CB = Backend.Check_backend

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let i x = Asm.I x

let graph_of items =
  let code, labels = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  let stream = Disasm.sweep_stream ~addr:Lowfat.Layout.code_base code in
  let g = Df.Graph.of_instrs ~entry:Lowfat.Layout.code_base stream in
  let block_at name =
    match Df.Graph.index_at g (Hashtbl.find labels name) with
    | Some idx -> Df.Graph.block_of_instr g idx
    | None -> Alcotest.failf "label %s is not an instruction boundary" name
  in
  (g, block_at)

let assemble_binary items : Binfmt.Relf.t =
  let code, _ = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  {
    Binfmt.Relf.entry = Lowfat.Layout.code_base;
    pic = false;
    stripped = true;
    sections =
      [
        Binfmt.Relf.section ~executable:true ~name:".text"
          ~addr:Lowfat.Layout.code_base code;
      ];
  }

let has_sub sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* --- Dom back-edge queries ------------------------------------------ *)

(*  entry -> head <-> body ; head -> exit  (natural loop) *)
let natural_loop =
  [
    Asm.Label "entry";
    i (Isa.Mov_ri (Isa.rbx, 0));
    Asm.Label "head";
    i (Isa.Alu_ri (Isa.Sub, Isa.rbx, 10));
    Asm.Jcc_l (Isa.Ge, "exit");
    Asm.Label "body";
    i (Isa.Alu_ri (Isa.Add, Isa.rbx, 1));
    Asm.Jmp_l "head";
    Asm.Label "exit";
    i Isa.Ret;
  ]

let test_back_edges () =
  let g, blk = graph_of natural_loop in
  let dom = Df.Dom.compute g in
  let head = blk "head" and body = blk "body" in
  Alcotest.(check (list (pair int int))) "one back edge"
    [ (body, head) ]
    (Df.Dom.back_edges dom);
  Alcotest.(check bool) "latch -> header is a back edge" true
    (Df.Dom.is_back_edge dom ~src:body ~dst:head);
  Alcotest.(check bool) "header -> latch is not" false
    (Df.Dom.is_back_edge dom ~src:head ~dst:body);
  let loops = Df.Loops.analyze g dom in
  Alcotest.(check int) "one natural loop" 1
    (Array.length loops.Df.Loops.loops);
  let l = loops.Df.Loops.loops.(0) in
  Alcotest.(check int) "header" head l.Df.Loops.header;
  Alcotest.(check (list int)) "latches" [ body ] l.Df.Loops.latches;
  Alcotest.(check (option int)) "preheader" (Some (blk "entry"))
    l.Df.Loops.preheader

(* --- irreducible-CFG fallback --------------------------------------- *)

(* entry enters the a <-> b cycle at both nodes: neither dominates the
   other, so the cycle is irreducible — no back edge, no natural loop,
   and hoisting must degrade to "off" without crashing. *)
let irreducible =
  [
    Asm.Label "entry";
    i (Isa.Mov_ri (Isa.rax, 1));
    Asm.Jcc_l (Isa.Eq, "b");
    Asm.Label "a";
    i (Isa.Store (Isa.W8, Isa.mem ~base:Isa.rax (), Isa.r10));
    Asm.Label "b";
    i (Isa.Alu_ri (Isa.Sub, Isa.rax, 1));
    Asm.Jcc_l (Isa.Ne, "a");
    Asm.Label "exit";
    i Isa.Ret;
  ]

let test_irreducible_fallback () =
  let g, _ = graph_of irreducible in
  let dom = Df.Dom.compute g in
  Alcotest.(check (list (pair int int))) "no back edges" []
    (Df.Dom.back_edges dom);
  let loops = Df.Loops.analyze g dom in
  Alcotest.(check int) "no natural loops" 0
    (Array.length loops.Df.Loops.loops);
  (* the rewriter on the same shape: hoisting enabled, nothing to
     hoist, binary still verifies *)
  let hard = Rw.rewrite Rw.with_hoist (assemble_binary irreducible) in
  Alcotest.(check int) "nothing hoisted" 0 hard.Rw.stats.hoisted_checks;
  match Rw.verify hard.Rw.binary with
  | Ok r -> Alcotest.(check bool) "verifies" true (Df.Verify.ok r)
  | Error e -> Alcotest.fail e

(* --- elimtab round-trip --------------------------------------------- *)

let test_elimtab_hoist_roundtrip () =
  let t =
    {
      Df.Elimtab.backend = Df.Elimtab.default_backend;
      reads = true;
      writes = true;
      entries =
        [
          (0x400010, Df.Elimtab.Clear);
          (0x400020, Df.Elimtab.Hoist (0x400008, 0, 512));
          (0x400030, Df.Elimtab.Hoist (0x400008, -16, 24));
        ];
    }
  in
  Alcotest.(check bool) "round-trips" true
    (t = Df.Elimtab.parse (Df.Elimtab.render t));
  match Df.Elimtab.parse "!policy reads=1 writes=1\n400020 hoist nope 0 8\n" with
  | _ -> Alcotest.fail "malformed hoist line accepted"
  | exception Binfmt.Reader.Error _ -> ()

(* --- MiniC fixtures -------------------------------------------------- *)

open Minic.Ast
open Minic.Build

(* two sequential counted loops over one 64-element array: both hoist,
   and the second hoisted check is itself covered by the first *)
let two_loop_program =
  Minic.Ast.program
    [
      func ~name:"main"
        [
          let_ "a" (alloc_elems (i 64));
          for_ "j" (i 0) (i 64) [ set (v "a") (v "j") (v "j") ];
          let_ "s" (i 0);
          for_ "j" (i 0) (i 64) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
          print_ (v "s");
          free_ (v "a");
          return_ (i 0);
        ];
    ]

let loop_free_program =
  Minic.Ast.program
    [
      func ~name:"main"
        [
          let_ "a" (alloc_elems (i 8));
          set (v "a") (i 0) (i 1);
          set (v "a") (i 1) (i 2);
          let_ "s" (idx (v "a") (i 0) +: idx (v "a") (i 1));
          print_ (v "s");
          free_ (v "a");
          return_ (i 0);
        ];
    ]

(* --- hoist-off parity ----------------------------------------------- *)

let test_hoist_off_parity () =
  Alcotest.(check bool) "with_hoist is optimized + hoist" true
    ({ Rw.with_hoist with hoist = false } = Rw.optimized);
  (* hoisting is a no-op on loop-free code: same bytes as the seed
     rewriter *)
  let bin = Minic.Codegen.compile loop_free_program in
  let seed = Redfat.harden ~opts:Rw.optimized bin in
  let hoisted = Redfat.harden ~opts:Rw.with_hoist bin in
  Alcotest.(check string) "loop-free bytes identical"
    (Binfmt.Relf.serialize seed.Rw.binary)
    (Binfmt.Relf.serialize hoisted.Rw.binary);
  (* distinct cache identity even so: the option is in the key *)
  Alcotest.(check bool) "options_key separates hoist" false
    (Rw.options_key Rw.optimized = Rw.options_key Rw.with_hoist)

(* --- effectiveness + behaviour preservation ------------------------- *)

let test_hoist_effectiveness () =
  let bin = Minic.Codegen.compile two_loop_program in
  let seed = Redfat.harden ~opts:Rw.optimized bin in
  let hoisted = Redfat.harden ~opts:Rw.with_hoist bin in
  Alcotest.(check bool) "strictly fewer emitted checks" true
    (hoisted.Rw.stats.checks_emitted < seed.Rw.stats.checks_emitted);
  (* both loops' accesses leave the per-iteration stream; the second
     loop's widened check is covered by the first and elided, leaving
     a single emitted check *)
  Alcotest.(check int) "one widened check emitted" 1
    hoisted.Rw.stats.hoisted_checks;
  Alcotest.(check int) "both members hoisted" 2
    (List.assoc "elide.hoist" hoisted.Rw.stats.checks_by_kind);
  let r1 = Redfat.run seed.Rw.binary libredfat in
  let r2 = Redfat.run hoisted.Rw.binary libredfat in
  Alcotest.(check bool) "seed run finishes" true
    (r1.Redfat.verdict = Redfat.Finished 0);
  Alcotest.(check bool) "hoisted run finishes" true
    (r2.Redfat.verdict = Redfat.Finished 0);
  Alcotest.(check (list int)) "same outputs" r1.Redfat.run.outputs
    r2.Redfat.run.outputs;
  Alcotest.(check bool) "hoisted run is cheaper" true
    (r2.Redfat.run.cycles < r1.Redfat.run.cycles);
  match Redfat.Rewrite.verify hoisted.Rw.binary with
  | Ok r ->
    Alcotest.(check bool) "verifies" true (Df.Verify.ok r);
    Alcotest.(check int) "both hoists proved" 2 r.Df.Verify.elim_hoist
  | Error e -> Alcotest.fail e

(* --- the linter rejects a tampered (narrowed) hull ------------------- *)

let test_verify_rejects_narrowed_hull () =
  let bin = Minic.Codegen.compile two_loop_program in
  let hard = Redfat.harden ~opts:Rw.with_hoist bin in
  let narrow_one_line etab =
    let narrowed = ref false in
    String.split_on_char '\n' etab
    |> List.map (fun line ->
           match String.split_on_char ' ' line with
           | [ a; "hoist"; s; lo; hi ] when not !narrowed ->
             narrowed := true;
             let hi = int_of_string hi - 8 in
             Printf.sprintf "%s hoist %s %s %d" a s lo hi
           | _ -> line)
    |> String.concat "\n"
  in
  let tampered =
    {
      hard.Rw.binary with
      Binfmt.Relf.sections =
        List.map
          (fun (s : Binfmt.Relf.section) ->
            if s.name = Df.Elimtab.section_name then
              { s with Binfmt.Relf.bytes = narrow_one_line s.bytes }
            else s)
          hard.Rw.binary.Binfmt.Relf.sections;
    }
  in
  match Redfat.Rewrite.verify tampered with
  | Ok r ->
    Alcotest.(check bool) "narrowed hull fails the lint" false
      (Df.Verify.ok r);
    Alcotest.(check bool) "failure names the subsumption obligation" true
      (List.exists
         (fun (f : Df.Verify.failure) -> has_sub "subsume" f.f_reason)
         r.Df.Verify.failures)
  | Error e -> Alcotest.fail e

(* --- backend widening policy ----------------------------------------- *)

let test_backend_widen_policy () =
  List.iter
    (fun (b, v, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s widens %s" (CB.name b)
           (match v with
            | Isa.Full -> "full"
            | Isa.Redzone -> "redzone"
            | Isa.Temporal -> "temporal"))
        expect
        (CB.widen b v <> None))
    [
      (CB.Lowfat, Isa.Full, true);
      (CB.Lowfat, Isa.Redzone, true);
      (CB.Lowfat, Isa.Temporal, false);
      (CB.Redzone, Isa.Redzone, true);
      (CB.Redzone, Isa.Full, false);
      (CB.Temporal, Isa.Full, false);
      (CB.Temporal, Isa.Redzone, false);
      (CB.Temporal, Isa.Temporal, false);
    ];
  (* the temporal backend declines end to end: per-iteration checks
     stay, nothing is hoisted, and the binary still verifies *)
  let bin = Minic.Codegen.compile two_loop_program in
  let hard =
    Redfat.harden ~opts:{ Rw.with_hoist with backend = CB.Temporal } bin
  in
  Alcotest.(check int) "temporal hoists nothing" 0
    hard.Rw.stats.hoisted_checks;
  match Redfat.Rewrite.verify hard.Rw.binary with
  | Ok r -> Alcotest.(check bool) "verifies" true (Df.Verify.ok r)
  | Error e -> Alcotest.fail e

let tests =
  [
    Alcotest.test_case "dom: back-edge queries" `Quick test_back_edges;
    Alcotest.test_case "irreducible CFG: no-hoist fallback" `Quick
      test_irreducible_fallback;
    Alcotest.test_case "elimtab: hoist record round-trip" `Quick
      test_elimtab_hoist_roundtrip;
    Alcotest.test_case "hoist off: seed parity" `Quick test_hoist_off_parity;
    Alcotest.test_case "hoist: fewer checks, same behaviour" `Quick
      test_hoist_effectiveness;
    Alcotest.test_case "verify: narrowed hull rejected" `Quick
      test_verify_rejects_narrowed_hull;
    Alcotest.test_case "backends: widening policy" `Quick
      test_backend_widen_policy;
  ]
