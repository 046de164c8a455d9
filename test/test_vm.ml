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

(* Values a word store must round-trip exactly.  Bit 62 is OCaml's
   sign bit, which [Int64.of_int] copies into bit 63 while the byte
   path leaves it 0, so negative values are the interesting ones. *)
let word_values =
  [|
    0; 1; -1; min_int; max_int; min_int lor 0xabcdef; 0x1122_3344_5566_7788;
    -0x0102_0304_0506_0708; 0xffff_ffff; 0x8000_0000; 0xffff; 0x80;
  |]

(* Pages this far apart share a slot in any power-of-two TLB of up to
   1024 entries. *)
let tlb_alias_pages = 1024

(* seeded random map/unmap/read/write/is_mapped/read_string over four
   16-page windows (the first and last share every TLB slot): maps of
   up to 6 pages land adjacent to, across and inside earlier ones, and
   unmaps of up to 3 pages split ranges; then deterministic sweeps of
   the word path, TLB aliasing and unmapping a page the TLB holds *)
let test_mem_matches_page_table () =
  let rng = Random.State.make [| 2022 |] in
  let m = Vm.Mem.create () and r = Page_table.create () in
  let ps = Vm.Mem.page_size in
  let windows =
    [| 0x10000; 0x7f0000; 86 lsl 35; 0x10000 + (tlb_alias_pages * ps) |]
  in
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
      let v =
        match Random.State.int rng 3 with
        | 0 -> word_values.(Random.State.int rng (Array.length word_values))
        | 1 -> Random.State.bits rng lor (Random.State.bits rng lsl 30)
        | _ -> lnot (Random.State.bits rng lor (Random.State.bits rng lsl 33))
      in
      Alcotest.(check (result unit int)) (what "write")
        (outcome (fun () -> Page_table.write r ~addr ~len v))
        (outcome (fun () -> Vm.Mem.write m ~addr ~len v))
    | _ ->
      Alcotest.(check string) (what "read_string")
        (Page_table.read_string r ~addr ~len:40)
        (Vm.Mem.read_string m ~addr ~len:40)
  done;
  (* the same operation on a fresh pair of models, outcome compared *)
  let m = Vm.Mem.create () and r = Page_table.create () in
  let show = function
    | Ok v -> Printf.sprintf "%#x" v
    | Error a -> Printf.sprintf "Segfault %#x" a
  in
  let same what f g =
    let a = outcome f and b = outcome g in
    if a <> b then Alcotest.failf "%s: %s, reference %s" what (show a) (show b)
  in
  let write what ~addr ~len v =
    same what
      (fun () -> Vm.Mem.write m ~addr ~len v; 0)
      (fun () -> Page_table.write r ~addr ~len v; 0)
  in
  let read what ~addr ~len =
    same what
      (fun () -> Vm.Mem.read m ~addr ~len)
      (fun () -> Page_table.read r ~addr ~len)
  in
  let same_bytes what ~addr ~len =
    Alcotest.(check string) what
      (Page_table.read_string r ~addr ~len)
      (Vm.Mem.read_string m ~addr ~len)
  in
  let map ~addr ~len =
    Vm.Mem.map m ~addr ~len;
    Page_table.map r ~addr ~len
  in
  let unmap ~addr ~len =
    Vm.Mem.unmap m ~addr ~len;
    Page_table.unmap r ~addr ~len
  in
  let widths = [ 1; 2; 4; 8 ] in
  (* every width at every offset of a page followed by a hole: in-page
     accesses take the word path; the last [len - 1] offsets straddle
     into the hole and must fault on its first byte, after writing the
     bytes before it *)
  let base = 0x200000 in
  map ~addr:base ~len:ps;
  List.iter
    (fun len ->
      for off = 0 to ps - 1 do
        let addr = base + off in
        let v = word_values.(off mod Array.length word_values) in
        let what op = Printf.sprintf "%s %d bytes at +%#x" op len off in
        write (what "write") ~addr ~len v;
        List.iter
          (fun rlen ->
            read (what (Printf.sprintf "read %d of" rlen)) ~addr ~len:rlen)
          widths
      done;
      same_bytes
        (Printf.sprintf "page after %d-byte sweep" len)
        ~addr:base ~len:ps)
    widths;
  (* two pages that share a TLB slot, touched alternately *)
  let a = 0x300000 and b = 0x300000 + (tlb_alias_pages * ps) in
  map ~addr:a ~len:ps;
  map ~addr:b ~len:ps;
  Array.iteri
    (fun k v ->
      let off = k * 8 in
      write "write a" ~addr:(a + off) ~len:8 v;
      write "write b" ~addr:(b + off) ~len:8 (lnot v);
      List.iter
        (fun len ->
          read "read a" ~addr:(a + off) ~len;
          read "read b" ~addr:(b + off) ~len)
        widths)
    word_values;
  (* unmap the page the TLB holds: later accesses fault, is_mapped
     says no, and a remap brings back a zero page *)
  read "touch a" ~addr:a ~len:8;
  unmap ~addr:a ~len:ps;
  Alcotest.(check bool) "unmapped page not mapped" false (Vm.Mem.is_mapped m a);
  read "read unmapped a" ~addr:a ~len:8;
  write "write unmapped a" ~addr:(a + 16) ~len:4 7;
  read "b survives" ~addr:b ~len:8;
  map ~addr:a ~len:ps;
  read "remapped a is zero" ~addr:a ~len:8;
  same_bytes "remapped page" ~addr:a ~len:ps

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

(* --- copy-on-write instances ----------------------------------------- *)

(* A template over 128 pages from [cow_base]: page P = [cow_base]
   written (a shared page in every instance), the rest demand-zero.
   Page Q = P + 64 maps to the same TLB slot as P. *)
let cow_base = 0x10000
let page_q = cow_base + (64 * Vm.Mem.page_size)

let cow_template () =
  let m = Vm.Mem.create () in
  Vm.Mem.map m ~addr:cow_base ~len:(128 * Vm.Mem.page_size);
  Vm.Mem.write m ~addr:cow_base ~len:8 0x1111;
  Vm.Mem.write m ~addr:(cow_base + 8) ~len:8 0x2222;
  Vm.Mem.freeze m

let check_read what m ~addr expect =
  Alcotest.(check int) what expect (Vm.Mem.read m ~addr ~len:8)

let test_cow_isolation () =
  let tp = cow_template () in
  let a = Vm.Mem.instantiate tp and b = Vm.Mem.instantiate tp in
  Vm.Mem.write a ~addr:cow_base ~len:8 42;
  Vm.Mem.write_string b ~addr:(cow_base + 8) "\007";
  check_read "a sees its store" a ~addr:cow_base 42;
  check_read "a keeps the template's other word" a ~addr:(cow_base + 8) 0x2222;
  check_read "b does not see a's store" b ~addr:cow_base 0x1111;
  check_read "b sees its own store" b ~addr:(cow_base + 8) 0x2207;
  let c = Vm.Mem.instantiate tp in
  check_read "template unchanged" c ~addr:cow_base 0x1111;
  check_read "template unchanged (2)" c ~addr:(cow_base + 8) 0x2222

let test_cow_read_then_write () =
  let tp = cow_template () in
  let a = Vm.Mem.instantiate tp in
  (* the read fills the TLB slot with the shared page *)
  check_read "shared read" a ~addr:(cow_base + 8) 0x2222;
  Vm.Mem.write a ~addr:(cow_base + 8) ~len:8 7;
  check_read "write seen" a ~addr:(cow_base + 8) 7;
  check_read "rest of the page copied" a ~addr:cow_base 0x1111;
  Vm.Mem.write a ~addr:(cow_base + 16) ~len:1 9;
  check_read "second write to the copy" a ~addr:(cow_base + 16) 9;
  check_read "template unchanged" (Vm.Mem.instantiate tp) ~addr:(cow_base + 8)
    0x2222

(* P (shared) and Q (private) share a TLB slot: whichever was filled
   last, a write must reach its own page, never the shared one *)
let test_cow_tlb_aliasing () =
  let tp = cow_template () in
  let a = Vm.Mem.instantiate tp in
  Vm.Mem.write a ~addr:page_q ~len:8 5;
  check_read "shared P evicts private Q" a ~addr:cow_base 0x1111;
  Vm.Mem.write a ~addr:page_q ~len:8 6;
  check_read "Q holds the write" a ~addr:page_q 6;
  check_read "P unchanged" a ~addr:cow_base 0x1111;
  check_read "template's P unchanged" (Vm.Mem.instantiate tp) ~addr:cow_base
    0x1111;
  (* the other way round: P copied, then Q read, then P written *)
  Vm.Mem.write a ~addr:cow_base ~len:8 8;
  check_read "Q evicts private P" a ~addr:page_q 6;
  Vm.Mem.write a ~addr:cow_base ~len:8 9;
  check_read "P holds the write" a ~addr:cow_base 9;
  check_read "Q unchanged" a ~addr:page_q 6;
  check_read "template's P still unchanged" (Vm.Mem.instantiate tp)
    ~addr:cow_base 0x1111

let test_cow_unmap_shared () =
  let tp = cow_template () in
  let a = Vm.Mem.instantiate tp and b = Vm.Mem.instantiate tp in
  check_read "cached in a's TLB" a ~addr:cow_base 0x1111;
  Vm.Mem.unmap a ~addr:cow_base ~len:8;
  Alcotest.(check bool) "unmapped in a" false (Vm.Mem.is_mapped a cow_base);
  Alcotest.check_raises "read faults" (Vm.Mem.Segfault cow_base) (fun () ->
      ignore (Vm.Mem.read a ~addr:cow_base ~len:8));
  Alcotest.check_raises "write faults" (Vm.Mem.Segfault (cow_base + 8))
    (fun () -> Vm.Mem.write a ~addr:(cow_base + 8) ~len:8 1);
  check_read "b still maps it" b ~addr:cow_base 0x1111;
  check_read "template still maps it" (Vm.Mem.instantiate tp) ~addr:cow_base
    0x1111

let test_cow_demand_zero () =
  let tp = cow_template () in
  let a = Vm.Mem.instantiate tp and b = Vm.Mem.instantiate tp in
  check_read "unwritten template page" a ~addr:page_q 0;
  Vm.Mem.write b ~addr:(page_q + 8) ~len:8 3;
  check_read "b's page is b's" a ~addr:(page_q + 8) 0;
  Vm.Mem.map a ~addr:0x900000 ~len:16;
  check_read "page mapped after instantiation" a ~addr:0x900000 0;
  Alcotest.check_raises "unmapped stays unmapped" (Vm.Mem.Segfault 0x900000)
    (fun () -> ignore (Vm.Mem.read b ~addr:0x900000 ~len:8))

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

(* A loop whose trap-patched head and its trampoline lie exactly 256
   bytes apart, so they share a decode-cache slot and evict each other
   on every iteration:

     loop:   trap                  ; -> tramp, +10 cycles
     resume: add rcx, 1
             cmp rcx, 5
             jl loop               ; +1 when taken
             mov rdi, rax
             callrt print          ; +8
             ret                   ; pops the halt sentinel
             nop ...               ; padding, never executed
     tramp:  add rax, rcx          ; loop + 256
             jmp resume            ; +1

   Five iterations sum rcx = 0..4 into rax.  Steps: 2 set-up + 5 x 6
   + 3 tail = 35.  Cycles: 2 + 4 x 18 (taken jl) + 17 + (1 + 9 + 1)
   = 102. *)
let test_decode_cache_aliasing () =
  let program pad =
    [
      i (Isa.Mov_ri (Isa.rax, 0));
      i (Isa.Mov_ri (Isa.rcx, 0));
      Asm.Label "loop";
      i Isa.Trap;
      Asm.Label "resume";
      i (Isa.Alu_ri (Isa.Add, Isa.rcx, 1));
      i (Isa.Cmp_ri (Isa.rcx, 5));
      Asm.Jcc_l (Isa.Lt, "loop");
      i (Isa.Mov_rr (Isa.rdi, Isa.rax));
      i (Isa.Callrt Isa.Print);
      i Isa.Ret;
      i (Isa.Nop pad);
      Asm.Label "tramp";
      i (Isa.Alu_rr (Isa.Add, Isa.rax, Isa.rcx));
      Asm.Jmp_l "resume";
    ]
  in
  let gap labels = Hashtbl.find labels "tramp" - Hashtbl.find labels "loop" in
  let _, labels = Asm.assemble ~origin:0x400000 (program 1) in
  let code, labels =
    Asm.assemble ~origin:0x400000 (program (1 + 256 - gap labels))
  in
  Alcotest.(check int) "trap and trampoline 256 bytes apart" 256 (gap labels);
  let cpu = Vm.Cpu.create () in
  Vm.Mem.write_string cpu.mem ~addr:0x400000 code;
  Vm.Mem.map cpu.mem ~addr:0x7f0000 ~len:0x10000;
  cpu.regs.(Isa.rsp) <- 0x7fff00;
  Hashtbl.replace cpu.trap_table (Hashtbl.find labels "loop")
    (Hashtbl.find labels "tramp");
  let (_ : int) = Vm.Cpu.run cpu null_rt ~entry:0x400000 in
  Alcotest.(check (list int)) "outputs" [ 10 ] (Vm.Cpu.outputs cpu);
  Alcotest.(check int) "steps" 35 cpu.steps;
  Alcotest.(check int) "cycles" 102 cpu.cycles

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

(* --- images: predecoded code ------------------------------------------ *)

(* Every predecoded entry of every binary the VM golden corpus runs is
   what the fetcher decodes at its address; the sweep starts at each
   executable section's first byte. *)
let test_predecoded_matches_decode () =
  List.iter
    (fun (name, bin) ->
      let cpu, (), _ = Redfat.load (Redfat.image bin) Baseline in
      let execs =
        List.filter
          (fun (s : Binfmt.Relf.section) -> s.executable)
          bin.Binfmt.Relf.sections
      in
      Alcotest.(check int) (name ^ ": one region per executable section")
        (List.length execs) (Array.length cpu.code);
      Array.iter
        (fun (r : Vm.Cpu.region) ->
          if snd r.r_instrs.(0) = 0 then
            Alcotest.failf "%s: no entry at section start %#x" name r.r_base;
          Array.iteri
            (fun off ((_, n) as v) ->
              if n > 0 then begin
                let addr = r.r_base + off in
                let raw = Vm.Mem.read_string cpu.mem ~addr ~len:40 in
                if X64.Decode.decode ~addr raw 0 <> v then
                  Alcotest.failf "%s: predecoded entry at %#x differs" name addr
              end)
            r.r_instrs)
        cpu.code)
    (Vm_golden.binaries ())

(* Code is never written, by choice: a store into .text lands in memory
   (a read sees it, copy-on-write as any store), but the fetcher keeps
   running the instruction predecoded when the image was built.  Here
   the program overwrites the first byte of the instruction after the
   store with a hlt and then runs on through it, printing 7. *)
let test_store_into_text () =
  let hlt, _ = Asm.assemble ~origin:0 [ i Isa.Hlt ] in
  let items =
    [
      Asm.Mov_label (Isa.rbx, "target");
      i (Isa.Mov_ri (Isa.rcx, Char.code hlt.[0]));
      i (Isa.Store (Isa.W1, Isa.mem ~base:Isa.rbx (), Isa.rcx));
      Asm.Label "target";
      i (Isa.Mov_ri (Isa.rdi, 7));
      i (Isa.Callrt Isa.Print);
      i Isa.Ret;
    ]
  in
  let code, labels = Asm.assemble ~origin:Lowfat.Layout.code_base items in
  let target = Hashtbl.find labels "target" in
  let bin =
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
  in
  let im = Redfat.image bin in
  let instance () = let cpu, (), _ = Redfat.load im Baseline in cpu in
  let cpu = instance () in
  let r, v = Redfat.exec cpu null_rt ~entry:bin.entry in
  Alcotest.(check string) "runs to the end" "finished (exit 0)"
    (Redfat.verdict_to_string v);
  Alcotest.(check (list int)) "the predecoded instruction ran" [ 7 ] r.outputs;
  Alcotest.(check int) "the store landed" (Char.code hlt.[0])
    (Vm.Mem.read_u8 cpu.mem target);
  Alcotest.(check int) "the image's code is unchanged"
    (Char.code code.[target - Lowfat.Layout.code_base])
    (Vm.Mem.read_u8 (instance ()).mem target)

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
    Alcotest.test_case "decode cache aliasing" `Quick
      test_decode_cache_aliasing;
    Alcotest.test_case "trap without entry" `Quick
      test_trap_without_entry_faults;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "exit code" `Quick test_exit_code;
    Alcotest.test_case "memory access cost" `Quick test_cost_model_monotone;
    Alcotest.test_case "dispatch cost" `Quick test_dispatch_cost;
    Alcotest.test_case "cow: instances are isolated" `Quick test_cow_isolation;
    Alcotest.test_case "cow: read then write copies" `Quick
      test_cow_read_then_write;
    Alcotest.test_case "cow: shared/private TLB aliasing" `Quick
      test_cow_tlb_aliasing;
    Alcotest.test_case "cow: unmap of a shared page faults" `Quick
      test_cow_unmap_shared;
    Alcotest.test_case "cow: demand-zero pages read 0" `Quick
      test_cow_demand_zero;
    Alcotest.test_case "image: predecoded = decode" `Quick
      test_predecoded_matches_decode;
    Alcotest.test_case "image: a store into .text" `Quick test_store_into_text;
  ]
