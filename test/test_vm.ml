(* VM semantics: memory, interpreter, flags, costs, traps. *)

open X64

(* --- Mem ------------------------------------------------------------- *)

let test_mem_rw_widths () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:64;
  List.iter
    (fun (len, v) ->
      Vm.Mem.write m ~addr:0x1000 ~len v;
      let mask = if len = 8 then -1 else (1 lsl (len * 8)) - 1 in
      Alcotest.(check int)
        (Printf.sprintf "width %d" len)
        (v land mask)
        (Vm.Mem.read m ~addr:0x1000 ~len))
    [ (1, 0xab); (2, 0xbeef); (4, 0xdeadbeef); (8, 0x1234_5678_9abc) ]

let test_mem_negative_roundtrip () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0 ~len:16;
  List.iter
    (fun v ->
      Vm.Mem.write m ~addr:8 ~len:8 v;
      Alcotest.(check int) "neg round-trip" v (Vm.Mem.read m ~addr:8 ~len:8))
    [ -1; -42; min_int / 2; max_int / 2; -(1 lsl 40) ]

let test_mem_page_crossing () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:0x2000;
  let addr = 0x1ffd in
  Vm.Mem.write m ~addr ~len:8 0x1122334455667788;
  Alcotest.(check int) "crosses page" 0x1122334455667788
    (Vm.Mem.read m ~addr ~len:8)

let test_mem_segfault () =
  let m = Vm.Mem.create () in
  Alcotest.check_raises "unmapped" (Vm.Mem.Segfault 0x5000) (fun () ->
      ignore (Vm.Mem.read m ~addr:0x5000 ~len:1))

let test_mem_unmap () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:0x1000 ~len:8;
  Vm.Mem.write m ~addr:0x1000 ~len:8 7;
  Vm.Mem.unmap m ~addr:0x1000 ~len:8;
  Alcotest.(check bool) "unmapped" false (Vm.Mem.is_mapped m 0x1000);
  Alcotest.check_raises "faults" (Vm.Mem.Segfault 0x1000) (fun () ->
      ignore (Vm.Mem.read m ~addr:0x1000 ~len:8))

let test_mem_sparse_far_addresses () =
  let m = Vm.Mem.create () in
  let far = 86 lsl 35 in
  Vm.Mem.map m ~addr:far ~len:16;
  Vm.Mem.write m ~addr:far ~len:8 99;
  Alcotest.(check int) "far address" 99 (Vm.Mem.read m ~addr:far ~len:8)

(* A per-page reservation table: one entry per mapped page.  The
   reference semantics that [Mem]'s range bookkeeping must reproduce. *)
module Page_table = struct
  let page_bits = Vm.Mem.page_bits
  let page_size = Vm.Mem.page_size

  type t = {
    pages : (int, Bytes.t) Hashtbl.t;  (* materialized pages *)
    reserved : (int, unit) Hashtbl.t;  (* mapped but untouched pages *)
  }

  let create () = { pages = Hashtbl.create 64; reserved = Hashtbl.create 64 }

  let page_of t addr =
    let no = addr lsr page_bits in
    match Hashtbl.find_opt t.pages no with
    | Some p -> p
    | None ->
      if Hashtbl.mem t.reserved no then begin
        let p = Bytes.make page_size '\000' in
        Hashtbl.add t.pages no p;
        Hashtbl.remove t.reserved no;
        p
      end
      else raise (Vm.Mem.Segfault addr)

  let is_mapped t addr =
    let no = addr lsr page_bits in
    Hashtbl.mem t.pages no || Hashtbl.mem t.reserved no

  let map t ~addr ~len =
    if len > 0 then
      for no = addr lsr page_bits to (addr + len - 1) lsr page_bits do
        if not (Hashtbl.mem t.pages no || Hashtbl.mem t.reserved no) then
          Hashtbl.add t.reserved no ()
      done

  let unmap t ~addr ~len =
    if len > 0 then
      for no = addr lsr page_bits to (addr + len - 1) lsr page_bits do
        Hashtbl.remove t.pages no;
        Hashtbl.remove t.reserved no
      done

  let read_u8 t addr =
    Char.code (Bytes.get (page_of t addr) (addr land (page_size - 1)))

  (* byte by byte from the lowest address, so an access faults on its
     first unmapped byte *)
  let read t ~addr ~len =
    let v = ref 0 in
    for k = 0 to len - 1 do
      v := !v lor (read_u8 t (addr + k) lsl (8 * k))
    done;
    !v

  let write t ~addr ~len v =
    for k = 0 to len - 1 do
      let a = addr + k in
      Bytes.set (page_of t a) (a land (page_size - 1))
        (Char.chr ((v lsr (8 * k)) land 0xff))
    done

  let read_string t ~addr ~len =
    let b = Buffer.create len in
    (try
       for k = 0 to len - 1 do
         Buffer.add_char b (Char.chr (read_u8 t (addr + k)))
       done
     with Vm.Mem.Segfault _ -> ());
    Buffer.contents b
end

(* seeded random map/unmap/read/write/is_mapped/read_string over three
   16-page windows: maps of up to 6 pages land adjacent to, across and
   inside earlier ones, and unmaps of up to 3 pages split ranges *)
let test_mem_matches_page_table () =
  let rng = Random.State.make [| 2022 |] in
  let m = Vm.Mem.create () and r = Page_table.create () in
  let ps = Vm.Mem.page_size in
  let windows = [| 0x10000; 0x7f0000; 86 lsl 35 |] in
  let pick () =
    let base = windows.(Random.State.int rng (Array.length windows)) in
    let page = Random.State.int rng 18 - 1 in
    let off =
      match Random.State.int rng 3 with
      | 0 -> 0
      | 1 -> ps - 1 - Random.State.int rng 8
      | _ -> Random.State.int rng ps
    in
    base + (page * ps) + off
  in
  let outcome f =
    match f () with v -> Ok v | exception Vm.Mem.Segfault a -> Error a
  in
  (* after every map and unmap, the mapped set of all 54 pages *)
  let same_pages what =
    Array.iter
      (fun base ->
        for page = -1 to 16 do
          let a = base + (page * ps) in
          if Vm.Mem.is_mapped m a <> Page_table.is_mapped r a then
            Alcotest.failf "%s: page %#x mapped %b, reference %b" what a
              (Vm.Mem.is_mapped m a) (Page_table.is_mapped r a)
        done)
      windows
  in
  for step = 1 to 4000 do
    let addr = pick () in
    let what op = Printf.sprintf "step %d: %s %#x" step op addr in
    match Random.State.int rng 8 with
    | 0 | 1 ->
      let len = 1 + Random.State.int rng (6 * ps) in
      Vm.Mem.map m ~addr ~len;
      Page_table.map r ~addr ~len;
      same_pages (what (Printf.sprintf "map %#x bytes at" len))
    | 2 ->
      let len = 1 + Random.State.int rng (3 * ps) in
      Vm.Mem.unmap m ~addr ~len;
      Page_table.unmap r ~addr ~len;
      same_pages (what (Printf.sprintf "unmap %#x bytes at" len))
    | 3 ->
      Alcotest.(check bool) (what "is_mapped")
        (Page_table.is_mapped r addr) (Vm.Mem.is_mapped m addr)
    | 4 | 5 ->
      let len = [| 1; 2; 4; 8 |].(Random.State.int rng 4) in
      Alcotest.(check (result int int)) (what "read")
        (outcome (fun () -> Page_table.read r ~addr ~len))
        (outcome (fun () -> Vm.Mem.read m ~addr ~len))
    | 6 ->
      let len = [| 1; 2; 4; 8 |].(Random.State.int rng 4) in
      let v = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
      Alcotest.(check (result unit int)) (what "write")
        (outcome (fun () -> Page_table.write r ~addr ~len v))
        (outcome (fun () -> Vm.Mem.write m ~addr ~len v))
    | _ ->
      Alcotest.(check string) (what "read_string")
        (Page_table.read_string r ~addr ~len:40)
        (Vm.Mem.read_string m ~addr ~len:40)
  done

let test_mem_map_512mib () =
  let m = Vm.Mem.create () in
  let addr = 0x4000_0000 and len = 512 lsl 20 in
  Vm.Mem.map m ~addr ~len;
  List.iter
    (fun (what, a, expect) ->
      Alcotest.(check bool) what expect (Vm.Mem.is_mapped m a))
    [
      ("first byte", addr, true);
      ("last byte", addr + len - 1, true);
      ("byte below", addr - 1, false);
      ("byte above", addr + len, false);
    ];
  Alcotest.(check int) "demand-zero" 0
    (Vm.Mem.read m ~addr:(addr + len - 8) ~len:8)

(* --- Cpu ------------------------------------------------------------- *)

let null_rt =
  {
    Vm.Cpu.rt_malloc = (fun _ _ -> 0);
    rt_free = (fun _ _ -> ());
    rt_name = "null";
  }

(* assemble+load+run a code fragment; returns the cpu *)
let exec ?(inputs = []) items =
  let code, _ = Asm.assemble ~origin:0x400000 items in
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  cpu.inputs <- inputs;
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  cpu

let i x = Asm.I x

let test_arith () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 10));
        i (Isa.Mov_ri (Isa.rbx, 3));
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rbx)); (* 13 *)
        i (Isa.Mul_rr (Isa.rax, Isa.rax)); (* 169 *)
        i (Isa.Alu_ri (Isa.Sub, Isa.rax, 9)); (* 160 *)
        i (Isa.Div_rr (Isa.rax, Isa.rbx)); (* 53 *)
        i (Isa.Mov_ri (Isa.rcx, 7));
        i (Isa.Rem_rr (Isa.rcx, Isa.rbx)); (* 1 *)
        i (Isa.Shift_ri (Isa.Shl, Isa.rax, 2)); (* 212 *)
        i (Isa.Shift_ri (Isa.Sar, Isa.rax, 1)); (* 106 *)
        i (Isa.Neg Isa.rcx); (* -1 *)
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "rax" 106 cpu.regs.(Isa.rax);
  Alcotest.(check int) "rcx" (-1) cpu.regs.(Isa.rcx)

let test_logic () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 0b1100));
        i (Isa.Mov_ri (Isa.rbx, 0b1010));
        i (Isa.Mov_rr (Isa.rcx, Isa.rax));
        i (Isa.Alu_rr (Isa.And, Isa.rcx, Isa.rbx)); (* 0b1000 *)
        i (Isa.Mov_rr (Isa.rdx, Isa.rax));
        i (Isa.Alu_rr (Isa.Or, Isa.rdx, Isa.rbx)); (* 0b1110 *)
        i (Isa.Mov_rr (Isa.rsi, Isa.rax));
        i (Isa.Alu_rr (Isa.Xor, Isa.rsi, Isa.rbx)); (* 0b0110 *)
        i (Isa.Not Isa.rax);
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "and" 0b1000 cpu.regs.(Isa.rcx);
  Alcotest.(check int) "or" 0b1110 cpu.regs.(Isa.rdx);
  Alcotest.(check int) "xor" 0b0110 cpu.regs.(Isa.rsi);
  Alcotest.(check int) "not" (lnot 0b1100) cpu.regs.(Isa.rax)

(* all 10 condition codes against known operand pairs *)
let test_conditions () =
  let check cc a b expect =
    let cpu =
      exec
        [
          i (Isa.Mov_ri (Isa.rax, a));
          i (Isa.Mov_ri (Isa.rbx, b));
          i (Isa.Cmp_rr (Isa.rax, Isa.rbx));
          i (Isa.Setcc (cc, Isa.rcx));
          i Isa.Ret;
        ]
    in
    Alcotest.(check int)
      (Printf.sprintf "%s %d %d" (Disasm.cc_name cc) a b)
      (if expect then 1 else 0)
      cpu.regs.(Isa.rcx)
  in
  check Isa.Eq 5 5 true;
  check Isa.Eq 5 6 false;
  check Isa.Ne 5 6 true;
  check Isa.Lt (-1) 1 true;
  check Isa.Lt 1 (-1) false;
  check Isa.Le 5 5 true;
  check Isa.Gt 7 2 true;
  check Isa.Ge 2 7 false;
  (* unsigned: -1 is the largest value *)
  check Isa.Ult (-1) 1 false;
  check Isa.Ugt (-1) 1 true;
  check Isa.Ule 3 3 true;
  check Isa.Uge 1 (-1) false

let test_loop_and_branches () =
  (* sum 1..10 with a backward branch *)
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 0));
        i (Isa.Mov_ri (Isa.rcx, 1));
        Asm.Label "loop";
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rcx));
        i (Isa.Alu_ri (Isa.Add, Isa.rcx, 1));
        i (Isa.Cmp_ri (Isa.rcx, 10));
        Asm.Jcc_l (Isa.Le, "loop");
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "sum" 55 cpu.regs.(Isa.rax)

let test_call_ret_stack () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 1));
        Asm.Call_l "double";
        Asm.Call_l "double";
        Asm.Call_l "double";
        i Isa.Ret;
        Asm.Label "double";
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rax));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "3 doublings" 8 cpu.regs.(Isa.rax)

let test_push_pop () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rax, 111));
        i (Isa.Mov_ri (Isa.rbx, 222));
        i (Isa.Push Isa.rax);
        i (Isa.Push Isa.rbx);
        i (Isa.Pop Isa.rax); (* rax=222 *)
        i (Isa.Pop Isa.rbx); (* rbx=111 *)
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "rax" 222 cpu.regs.(Isa.rax);
  Alcotest.(check int) "rbx" 111 cpu.regs.(Isa.rbx)

let test_memory_operands () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rbx, 0x7f0000));
        i (Isa.Mov_ri (Isa.rcx, 3));
        i (Isa.Mov_ri (Isa.rax, 77));
        (* [rbx + rcx*8 + 16] = rax *)
        i (Isa.Store (Isa.W8, Isa.mem ~disp:16 ~base:Isa.rbx ~idx:Isa.rcx ~scale:8 (), Isa.rax));
        i (Isa.Load (Isa.W8, Isa.rdx, Isa.mem ~disp:40 ~base:Isa.rbx ()));
        (* byte store truncates *)
        i (Isa.Mov_ri (Isa.rax, 0x1ff));
        i (Isa.Store (Isa.W1, Isa.mem ~base:Isa.rbx (), Isa.rax));
        i (Isa.Load (Isa.W1, Isa.rsi, Isa.mem ~base:Isa.rbx ()));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "indexed store/load" 77 cpu.regs.(Isa.rdx);
  Alcotest.(check int) "byte truncation" 0xff cpu.regs.(Isa.rsi)

let test_lea () =
  let cpu =
    exec
      [
        i (Isa.Mov_ri (Isa.rbx, 1000));
        i (Isa.Mov_ri (Isa.rcx, 5));
        i (Isa.Lea (Isa.rax, Isa.mem ~disp:(-8) ~base:Isa.rbx ~idx:Isa.rcx ~scale:4 ()));
        i Isa.Ret;
      ]
  in
  Alcotest.(check int) "lea" (1000 + 20 - 8) cpu.regs.(Isa.rax)

let test_io_runtime () =
  let cpu =
    exec ~inputs:[ 5; 7 ]
      [
        i (Isa.Callrt Isa.Input);
        i (Isa.Mov_rr (Isa.rbx, Isa.rax));
        i (Isa.Callrt Isa.Input);
        i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rbx));
        i (Isa.Mov_rr (Isa.rdi, Isa.rax));
        i (Isa.Callrt Isa.Print);
        (* input exhausted -> 0 *)
        i (Isa.Callrt Isa.Input);
        i (Isa.Mov_rr (Isa.rdi, Isa.rax));
        i (Isa.Callrt Isa.Print);
        i Isa.Ret;
      ]
  in
  Alcotest.(check (list int)) "outputs" [ 12; 0 ] (Vm.Cpu.outputs cpu)

let test_div_by_zero () =
  Alcotest.check_raises "div0" (Vm.Cpu.Div_by_zero 0x40000c) (fun () ->
      ignore
        (exec
           [
             i (Isa.Mov_ri (Isa.rax, 5));
             i (Isa.Mov_ri (Isa.rbx, 0));
             i (Isa.Div_rr (Isa.rax, Isa.rbx));
             i Isa.Ret;
           ]))

let test_indirect_call_and_jump () =
  let code, labels =
    Asm.assemble ~origin:0x400000
      [
        Asm.Mov_label (Isa.rbx, "fn");
        i (Isa.Call_ind Isa.rbx);      (* rax = 5 *)
        Asm.Mov_label (Isa.rcx, "out");
        i (Isa.Jmp_ind Isa.rcx);
        i (Isa.Mov_ri (Isa.rax, 0));   (* skipped *)
        Asm.Label "out";
        i Isa.Ret;
        Asm.Label "fn";
        i (Isa.Mov_ri (Isa.rax, 5));
        i Isa.Ret;
      ]
  in
  ignore labels;
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  Alcotest.(check int) "indirect call result survives indirect jump" 5
    cpu.regs.(Isa.rax)

let test_trap_table () =
  (* a Trap redirects through the table and costs extra *)
  let code, labels =
    Asm.assemble ~origin:0x400000
      [
        i Isa.Trap;
        i (Isa.Nop 1);
        Asm.Label "after";
        i Isa.Ret;
        Asm.Label "tramp";
        i (Isa.Mov_ri (Isa.rax, 0xfeed));
        Asm.Jmp_l "after";
      ]
  in
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Hashtbl.replace cpu.trap_table 0x400000 (Hashtbl.find labels "tramp");
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  Alcotest.(check int) "trampoline ran" 0xfeed cpu.regs.(Isa.rax)

let test_trap_without_entry_faults () =
  Alcotest.check_raises "invalid opcode" (Vm.Cpu.Invalid_opcode 0x400000)
    (fun () -> ignore (exec [ i Isa.Trap; i Isa.Ret ]))

let test_timeout () =
  let code, _ =
    Asm.assemble ~origin:0x400000
      [ Asm.Label "spin"; Asm.Jmp_l "spin" ]
  in
  let cpu = Vm.Cpu.create ~max_steps:1000 () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Alcotest.check_raises "timeout" (Vm.Cpu.Timeout 1000) (fun () ->
      ignore (Vm.Cpu.run cpu null_rt ~entry:0x400000))

let test_exit_code () =
  let cpu = Vm.Cpu.create () in
  let code, _ =
    Asm.assemble ~origin:0x400000
      [ i (Isa.Mov_ri (Isa.rdi, 3)); i (Isa.Callrt Isa.Exit); i Isa.Ret ]
  in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Alcotest.(check int) "exit code" 3 (Vm.Cpu.run cpu null_rt ~entry:0x400000)

let test_cost_model_monotone () =
  let run items =
    let cpu = exec items in
    cpu.cycles
  in
  let base = run [ i (Isa.Nop 1); i Isa.Ret ] in
  let with_mem =
    run
      [
        i (Isa.Mov_ri (Isa.rbx, 0x7f0000));
        i (Isa.Load (Isa.W8, Isa.rax, Isa.mem ~base:Isa.rbx ()));
        i Isa.Ret;
      ]
  in
  Alcotest.(check bool) "memory access costs more" true (with_mem > base + 1)

let test_dispatch_cost () =
  let run dispatch =
    let code, _ =
      Asm.assemble ~origin:0x400000 [ i (Isa.Nop 1); i (Isa.Nop 1); i Isa.Ret ]
    in
    let cpu = Vm.Cpu.create () in
    Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
    Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
    cpu.regs.(Isa.rsp) <- 0x7fff00;
    cpu.dispatch_cost <- dispatch;
    let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
    cpu.cycles
  in
  Alcotest.(check int) "DBI dispatch charged per instruction"
    (run 0 + (3 * 5))
    (run 5)

let tests =
  [
    Alcotest.test_case "mem rw widths" `Quick test_mem_rw_widths;
    Alcotest.test_case "mem negative round-trip" `Quick
      test_mem_negative_roundtrip;
    Alcotest.test_case "mem page crossing" `Quick test_mem_page_crossing;
    Alcotest.test_case "mem segfault" `Quick test_mem_segfault;
    Alcotest.test_case "mem unmap" `Quick test_mem_unmap;
    Alcotest.test_case "mem sparse far addresses" `Quick
      test_mem_sparse_far_addresses;
    Alcotest.test_case "mem matches page-table model" `Quick
      test_mem_matches_page_table;
    Alcotest.test_case "mem 512 MiB map" `Quick test_mem_map_512mib;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "logic" `Quick test_logic;
    Alcotest.test_case "condition codes" `Quick test_conditions;
    Alcotest.test_case "loops and branches" `Quick test_loop_and_branches;
    Alcotest.test_case "call/ret stack" `Quick test_call_ret_stack;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "memory operands" `Quick test_memory_operands;
    Alcotest.test_case "lea" `Quick test_lea;
    Alcotest.test_case "scripted io" `Quick test_io_runtime;
    Alcotest.test_case "division by zero" `Quick test_div_by_zero;
    Alcotest.test_case "indirect call/jump" `Quick
      test_indirect_call_and_jump;
    Alcotest.test_case "trap table" `Quick test_trap_table;
    Alcotest.test_case "trap without entry" `Quick
      test_trap_without_entry_faults;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "memory access cost" `Quick test_cost_model_monotone;
    Alcotest.test_case "dispatch cost" `Quick test_dispatch_cost;
  ]
