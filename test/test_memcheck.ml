(* The Memcheck-style DBI comparator. *)

open Minic.Ast
open Minic.Build
module Mc = Baselines.Memcheck

let run prog inputs =
  let o = Redfat.run ~inputs (Minic.Codegen.compile prog) Memcheck in
  (o.run, o.verdict, o.state)

let simple body = Minic.Ast.program [ Minic.Ast.func ~name:"main" body ]

let test_clean_program_no_errors () =
  let _, v, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           for_ "j" (i 0) (i 8) [ set (v "a") (v "j") (v "j") ];
           let_ "s" (i 0);
           for_ "j" (i 0) (i 8) [ assign "s" (v "s" +: idx (v "a") (v "j")) ];
           print_ (v "s");
           free_ (v "a");
           return_ (i 0);
         ])
      []
  in
  (match v with
   | Redfat.Finished 0 -> ()
   | v -> Alcotest.failf "run: %s" (Redfat.verdict_to_string v));
  Alcotest.(check int) "no errors" 0 (List.length (Mc.errors mc))

let test_detects_overflow_into_redzone () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           set (v "a") (i 8) (i 1); (* one past the end: in the redzone *)
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "one error" 1 (List.length (Mc.errors mc));
  let e = List.hd (Mc.errors mc) in
  Alcotest.(check bool) "write error" true e.write

let test_detects_underflow () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           let_ "x" (idx (v "a") (i (-1))); (* leading redzone *)
           print_ (v "x" *: i 0);
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "one error" 1 (List.length (Mc.errors mc));
  Alcotest.(check bool) "read error" true (not (List.hd (Mc.errors mc)).write)

let test_detects_use_after_free () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           free_ (v "a");
           set (v "a") (i 0) (i 1);
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "UaF detected" 1 (List.length (Mc.errors mc))

let test_quarantine_no_reuse () =
  (* freed memory stays poisoned even after further allocations of the
     same size (the quarantine property redzone tools rely on) *)
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           free_ (v "a");
           let_ "b" (alloc_elems (i 8));
           set (v "b") (i 0) (i 1); (* fine *)
           set (v "a") (i 0) (i 2); (* still UaF *)
           free_ (v "b");
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "still detected after realloc" 1
    (List.length (Mc.errors mc))

let test_misses_redzone_skip () =
  (* the paper's core claim: a skip over the redzone into the next
     block is invisible to redzone-only tools *)
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           let_ "b" (alloc_elems (i 8));
           set (v "b") (i 0) (i 9);
           let_ "k" Input;
           set (v "a") (v "k") (i 1);
           print_ (idx (v "b") (i 0));
           return_ (i 0);
         ])
      [ 12 ]
  in
  Alcotest.(check int) "skip missed" 0 (List.length (Mc.errors mc))

let test_error_dedup_by_site () =
  let _, _, mc =
    run
      (simple
         [
           let_ "a" (alloc_elems (i 8));
           (* same faulting instruction executed 5 times *)
           for_ "j" (i 0) (i 5) [ set (v "a") (i 8) (v "j") ];
           return_ (i 0);
         ])
      []
  in
  Alcotest.(check int) "one report per site" 1 (List.length (Mc.errors mc))

let test_dispatch_overhead_charged () =
  let prog =
    simple
      [
        let_ "s" (i 0);
        for_ "j" (i 0) (i 100) [ assign "s" (v "s" +: v "j") ];
        print_ (v "s");
        return_ (i 0);
      ]
  in
  let bin = Minic.Codegen.compile prog in
  let base = (Redfat.run bin Baseline).run in
  let mc_run = (Redfat.run bin Memcheck).run in
  Alcotest.(check (list int)) "same output" base.outputs mc_run.outputs;
  Alcotest.(check bool) "DBI is much slower" true
    (mc_run.cycles > base.cycles * 4)

let page = Vm.Mem.page_size

(* the A bits agree with a plain byte array over a 64-page heap window
   under random marks (whole pages and slices), mallocs and frees *)
let test_shadow_matches_byte_oracle () =
  let rng = Random.State.make [| 7 |] in
  let mc = Mc.create (Vm.Mem.create ()) in
  let first = Mc.malloc mc 8 in
  let lo = (first land lnot (page - 1)) - (2 * page) in
  let size = 64 * page in
  let oracle = Bytes.make size '\000' in
  let mark_oracle a len ok =
    Bytes.fill oracle (a - lo) len (if ok then '\001' else '\000')
  in
  mark_oracle first 8 true;
  let live = ref [ (first, 8) ] in
  let check_window step =
    for k = 0 to size - 1 do
      if Mc.accessible mc (lo + k) <> (Bytes.get oracle k = '\001') then
        Alcotest.failf "step %d: A bit of %#x differs from the oracle" step
          (lo + k)
    done
  in
  for step = 1 to 600 do
    (match Random.State.int rng 4 with
     | 0 ->
       let n = 1 + Random.State.int rng 1000 in
       let a = Mc.malloc mc n in
       mark_oracle a n true;
       live := (a, n) :: !live
     | 1 -> (
       match !live with
       | [] -> ()
       | l ->
         let k = Random.State.int rng (List.length l) in
         let a, n = List.nth l k in
         Mc.free mc a;
         mark_oracle a n false;
         live := List.filteri (fun j _ -> j <> k) l)
     | _ ->
       let a, len =
         if Random.State.bool rng then
           (lo + (page * Random.State.int rng 60),
            page * (1 + Random.State.int rng 3))
         else
           (lo + Random.State.int rng (60 * page),
            1 + Random.State.int rng (2 * page))
       in
       let ok = Random.State.bool rng in
       Mc.mark mc ~addr:a ~len ~accessible:ok;
       mark_oracle a len ok);
    if step mod 100 = 0 then check_window step
  done

(* a partial mark inside one wholly addressable page leaves every other
   wholly addressable page as it was: the shared page is never written *)
let test_partial_mark_keeps_other_pages () =
  let mc = Mc.create (Vm.Mem.create ()) in
  let lo = 0x40_0000 in
  Mc.mark mc ~addr:lo ~len:(4 * page) ~accessible:true;
  Mc.mark mc ~addr:(lo + page + 100) ~len:50 ~accessible:false;
  Mc.mark mc ~addr:(lo + (6 * page)) ~len:page ~accessible:true;
  for k = 0 to (8 * page) - 1 do
    let hole = k >= page + 100 && k < page + 150 in
    let expect = (k < 4 * page && not hole) || (k >= 6 * page && k < 7 * page) in
    if Mc.accessible mc (lo + k) <> expect then
      Alcotest.failf "A bit of page %d offset %d" (k / page) (k mod page)
  done

(* an 8-byte access straddling from an addressable page into an
   unaddressable one is one error, however many pages it touches *)
let test_straddling_access_logged_once () =
  let bin = Minic.Codegen.compile (simple [ return_ (i 0) ]) in
  let cpu, mc, _ = Redfat.load (Redfat.image bin) Memcheck in
  let hook = Option.get cpu.on_mem in
  let lo = 0x40_0000 in
  Mc.mark mc ~addr:lo ~len:page ~accessible:true;
  cpu.rip <- 0x1000;
  hook cpu ~addr:(lo + page - 8) ~len:8 ~write:false;
  Alcotest.(check int) "in-page access is clean" 0 (List.length (Mc.errors mc));
  hook cpu ~addr:(lo + page - 4) ~len:8 ~write:true;
  (match Mc.errors mc with
   | [ e ] ->
     Alcotest.(check int) "error address" (lo + page - 4) e.addr;
     Alcotest.(check int) "error length" 8 e.len;
     Alcotest.(check bool) "write" true e.write
   | es -> Alcotest.failf "%d errors, expected 1" (List.length es));
  (* the second page partly addressable, its first two bytes not *)
  Mc.mark mc ~addr:(lo + page + 2) ~len:100 ~accessible:true;
  cpu.rip <- 0x1008;
  hook cpu ~addr:(lo + page - 4) ~len:8 ~write:false;
  Alcotest.(check int) "second straddle logged once" 2
    (List.length (Mc.errors mc))

let test_stack_bounds_addressable () =
  let _, _, mc = run (simple [ return_ (i 0) ]) [] in
  let lo = Lowfat.Layout.stack_lo in
  let hi = lo + Lowfat.Layout.stack_size in
  Alcotest.(check bool) "first stack byte" true (Mc.accessible mc lo);
  Alcotest.(check bool) "last stack byte" true (Mc.accessible mc (hi - 1));
  Alcotest.(check bool) "byte below stack_lo" false (Mc.accessible mc (lo - 1))

let tests =
  [
    Alcotest.test_case "clean program" `Quick test_clean_program_no_errors;
    Alcotest.test_case "shadow matches byte oracle" `Quick
      test_shadow_matches_byte_oracle;
    Alcotest.test_case "partial mark keeps other pages" `Quick
      test_partial_mark_keeps_other_pages;
    Alcotest.test_case "straddling access logged once" `Quick
      test_straddling_access_logged_once;
    Alcotest.test_case "stack bounds addressable" `Quick
      test_stack_bounds_addressable;
    Alcotest.test_case "overflow into redzone" `Quick
      test_detects_overflow_into_redzone;
    Alcotest.test_case "underflow" `Quick test_detects_underflow;
    Alcotest.test_case "use-after-free" `Quick test_detects_use_after_free;
    Alcotest.test_case "quarantine prevents reuse" `Quick
      test_quarantine_no_reuse;
    Alcotest.test_case "misses redzone skip" `Quick test_misses_redzone_skip;
    Alcotest.test_case "error dedup" `Quick test_error_dedup_by_site;
    Alcotest.test_case "dispatch overhead" `Quick
      test_dispatch_overhead_charged;
  ]
