(* The allocation-free stream, register summaries, graph builder and
   liveness solve against their allocating references
   ([Reference]): equal results on every instruction constructor, on
   random bytes, and on the Chrome-scale binary, the 29 kernels and
   their hardened [.text] and [.redfat] sections. *)

open X64
module Df = Dataflow
module Rw = Rewriter.Rewrite

(* --- every constructor ---------------------------------------------- *)

let gen_any_instr =
  let open QCheck.Gen in
  let open Isa in
  let reg = Test_x64.gen_reg and mem = Test_x64.gen_mem in
  let width = Test_x64.gen_width in
  let alu = oneofl [ Add; Sub; And; Or; Xor ] in
  let cc = oneofl [ Eq; Ne; Lt; Le; Gt; Ge; Ult; Ule; Ugt; Uge ] in
  let target = int_range 0x300000 0x500000 in
  let check =
    let* ck_variant = oneofl [ Full; Redzone; Temporal ]
    and* ck_mem = mem
    and* ck_write = bool
    and* ck_nsaves = int_range 0 3
    and* ck_save_flags = bool in
    return
      { ck_variant; ck_mem; ck_lo = 0; ck_hi = 8; ck_write; ck_site = 0;
        ck_nsaves; ck_save_flags }
  in
  oneof
    [
      map2 (fun d s -> Mov_rr (d, s)) reg reg;
      map2 (fun d v -> Mov_ri (d, v)) reg int;
      map3 (fun w d m -> Load (w, d, m)) width reg mem;
      map3 (fun w m s -> Store (w, m, s)) width mem reg;
      map3 (fun w m v -> Store_i (w, m, v)) width mem small_signed_int;
      map2 (fun d m -> Lea (d, m)) reg mem;
      map3 (fun op d s -> Alu_rr (op, d, s)) alu reg reg;
      map3 (fun op d v -> Alu_ri (op, d, v)) alu reg small_signed_int;
      map2 (fun d s -> Mul_rr (d, s)) reg reg;
      map2 (fun d s -> Div_rr (d, s)) reg reg;
      map2 (fun d s -> Rem_rr (d, s)) reg reg;
      map (fun r -> Neg r) reg;
      map (fun r -> Not r) reg;
      map3
        (fun s r n -> Shift_ri (s, r, n))
        (oneofl [ Shl; Shr; Sar ]) reg (int_range 0 63);
      map2 (fun a b -> Cmp_rr (a, b)) reg reg;
      map2 (fun a v -> Cmp_ri (a, v)) reg small_signed_int;
      map2 (fun a b -> Test_rr (a, b)) reg reg;
      map2 (fun c r -> Setcc (c, r)) cc reg;
      map (fun t -> Jmp t) target;
      map2 (fun c t -> Jcc (c, t)) cc target;
      map (fun t -> Call t) target;
      map (fun r -> Call_ind r) reg;
      map (fun r -> Jmp_ind r) reg;
      return Ret;
      map (fun r -> Push r) reg;
      map (fun r -> Pop r) reg;
      map (fun f -> Callrt f) (oneofl [ Malloc; Free; Input; Print; Exit ]);
      map (fun n -> Nop n) (int_range 1 9);
      return Hlt;
      return Trap;
      map (fun c -> Check c) check;
      map (fun id -> Probe id) small_nat;
    ]

let masks_agree i =
  Isa.def_mask i = Reference.mask_of (Reference.defs i)
  && Isa.use_mask i = Reference.mask_of (Reference.uses i)
  && Isa.is_call i
     = (match Isa.flow_of i with To_call _ | Dyn_call -> true | _ -> false)
  && Isa.falls_through i = (Isa.flow_of i = Isa.Fall)

let prop_masks_match_lists =
  QCheck.Test.make ~count:3000 ~name:"def/use masks equal the list forms"
    (QCheck.make gen_any_instr ~print:Disasm.to_string)
    masks_agree

(* --- the sweep ------------------------------------------------------- *)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Decode.Decode_error { addr; byte } -> Error (addr, byte)

(* the flat sweep, the reference triple sweep and the list sweep agree
   element for element, or raise the same payload *)
let sweeps_agree ~addr code =
  let flat =
    outcome (fun () -> Reference.triples (Disasm.sweep_stream ~addr code))
  in
  flat = outcome (fun () -> Reference.sweep_array ~addr code)
  && flat = outcome (fun () -> Array.of_list (Disasm.sweep ~addr code))

let prop_sweep_random_bytes =
  QCheck.Test.make ~count:2000 ~name:"flat sweep equals the triple sweep"
    QCheck.(string_gen_of_size Gen.(int_range 0 48) Gen.char)
    (fun code -> sweeps_agree ~addr:0x400000 code)

let prop_sweep_encoded =
  QCheck.Test.make ~count:300 ~name:"flat sweep of encoded streams"
    QCheck.(make Gen.(list_size (int_range 1 40) Test_x64.gen_instr))
    (fun is ->
      sweeps_agree ~addr:0x400000 (Encode.encode_seq ~addr:0x400000 is))

(* --- the fleet -------------------------------------------------------- *)

(* the Chrome-scale binary and the kernels, each with its optimized
   hardening, as (name, section) pairs: both texts and the
   trampolines *)
let fleet =
  lazy
    (List.concat_map
       (fun (name, bin) ->
         let hard = (Rw.rewrite Rw.optimized bin).Rw.binary in
         let sec b n = Option.get (Binfmt.Relf.find_section b n) in
         [
           (name ^ "/text", sec bin ".text");
           (name ^ "/hardened", sec hard ".text");
           (name ^ "/redfat", sec hard ".redfat");
         ])
       (("chrome", Workloads.Chrome.binary ())
       :: List.map
            (fun (b : Workloads.Spec.bench) -> (b.name, Workloads.Spec.binary b))
            Workloads.Spec.all))

let test_fleet_sweeps_and_masks () =
  List.iter
    (fun (name, (s : Binfmt.Relf.section)) ->
      if not (sweeps_agree ~addr:s.addr s.bytes) then
        Alcotest.failf "%s: the sweeps differ" name;
      match Disasm.sweep_stream ~addr:s.addr s.bytes with
      | st ->
        Array.iter
          (fun i ->
            if not (masks_agree i) then
              Alcotest.failf "%s: masks differ at %s" name (Disasm.to_string i))
          st.instrs
      | exception Decode.Decode_error _ -> ())
    (Lazy.force fleet)

(* the graph's edges, roots and order equal the [flow_of] builder's *)
let graph_matches name ~entry (st : Disasm.stream) =
  let g = Df.Graph.of_instrs ~entry st in
  let r = Reference.graph_edges ~entry (Reference.triples st) in
  let nb = Df.Graph.num_blocks g in
  if nb <> Array.length r.e_succs then Alcotest.failf "%s: block count" name;
  for b = 0 to nb - 1 do
    let blk = Df.Graph.block g b in
    if
      blk.succs <> r.e_succs.(b)
      || blk.fall_succs <> r.e_fall_succs.(b)
      || blk.preds <> r.e_preds.(b)
    then Alcotest.failf "%s: edges of block %d differ" name b
  done;
  if Df.Graph.roots g <> r.e_roots then Alcotest.failf "%s: roots differ" name;
  if Df.Graph.rpo g <> r.e_rpo then Alcotest.failf "%s: rpo differs" name;
  g

(* liveness: block entry and exit facts, and the fact before every
   instruction, equal the generic solver's *)
let live_matches name (g : Df.Graph.t) =
  let lv = Df.Live.solve g in
  let ref_in, ref_out = Reference.Live_ref.solve g in
  for b = 0 to Df.Graph.num_blocks g - 1 do
    if Df.Live.live_in lv b <> ref_in.(b) || Df.Live.live_out lv b <> ref_out.(b)
    then Alcotest.failf "%s: liveness of block %d differs" name b
  done;
  for i = 0 to Df.Graph.num_instrs g - 1 do
    if
      Df.Live.live_before lv i
      <> Reference.Live_ref.live_before g ~live_out:ref_out i
    then Alcotest.failf "%s: liveness before instruction %d differs" name i
  done

let test_fleet_graph_and_liveness () =
  List.iter
    (fun (name, (s : Binfmt.Relf.section)) ->
      match Disasm.sweep_stream ~addr:s.addr s.bytes with
      | st -> live_matches name (graph_matches name ~entry:s.addr st)
      | exception Decode.Decode_error _ -> ())
    (Lazy.force fleet)

(* random instruction streams: calls, branches and indirect transfers
   aimed inside and outside the stream *)
let prop_graph_random =
  let base = 0x400000 in
  let gen =
    let open QCheck.Gen in
    let target = int_range (base - 16) (base + 160) in
    list_size (int_range 1 40)
      (frequency
         [
           (6, Test_x64.gen_instr);
           (1, map (fun t -> Isa.Jmp t) target);
           (2, map (fun t -> Isa.Jcc (Isa.Ne, t)) target);
           (2, map (fun t -> Isa.Call t) target);
           (1, map (fun v -> Isa.Mov_ri (Isa.rax, v)) target);
           (1, map (fun r -> Isa.Call_ind r) Test_x64.gen_reg);
           (1, oneofl [ Isa.Ret; Isa.Hlt; Isa.Jmp_ind Isa.rax ]);
         ])
  in
  QCheck.Test.make ~count:500 ~name:"graph and liveness equal the references"
    (QCheck.make gen)
    (fun is ->
      let code = Encode.encode_seq ~addr:base is in
      let st = Disasm.sweep_stream ~addr:base code in
      live_matches "random" (graph_matches "random" ~entry:base st);
      true)

let tests =
  [
    QCheck_alcotest.to_alcotest prop_masks_match_lists;
    QCheck_alcotest.to_alcotest prop_sweep_random_bytes;
    QCheck_alcotest.to_alcotest prop_sweep_encoded;
    QCheck_alcotest.to_alcotest prop_graph_random;
    Alcotest.test_case "fleet: sweeps and masks" `Quick
      test_fleet_sweeps_and_masks;
    Alcotest.test_case "fleet: graph and liveness" `Quick
      test_fleet_graph_and_liveness;
  ]
