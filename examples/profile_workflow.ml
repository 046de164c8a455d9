(* The two-phase profile-based hardening workflow (paper §5, Figure 5).

   Run with:  dune exec examples/profile_workflow.exe

   The program below contains the Fortran-style anti-idiom the paper's
   §7.1 found throughout SPEC: an array accessed through a base pointer
   normalized *below* the allocation (fqy(its:ite) -> fqy - K).  Naive
   (LowFat) checking would flag this legitimate access — a false
   positive.  Profiling finds such sites and excludes them from the
   allow-list; the production binary checks them with (Redzone)-only,
   keeping the full complementary check everywhere else. *)

open Minic.Build

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

(* REAL, DIMENSION(4:36) :: fqy — indexed from 4, normalized base *)
let program =
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          let_ "fqy" (alloc_elems (i 32));
          let_ "data" (alloc_elems (i 32));
          (* idiomatic accesses: these should keep full protection *)
          for_ "j" (i 0) (i 32) [ set (v "data") (v "j") (v "j" *: i 3) ];
          (* the anti-idiom: fqy(j) for j in 4..36 compiles to
             (fqy - 4*8)[j], an intentionally out-of-bounds base *)
          for_ "j" (i 4) (i 36)
            [ Minic.Ast.Store (E8, v "fqy" -: i 32, v "j", v "j") ];
          let_ "s" (i 0);
          for_ "j" (i 0) (i 32)
            [ assign "s" (v "s" +: idx (v "fqy") (v "j") +: idx (v "data") (v "j")) ];
          print_ (v "s");
          return_ (i 0);
        ];
    ]

let () =
  print_endline "== profile-based false positive elimination ==\n";
  let binary = Minic.Codegen.compile program in

  (* what happens WITHOUT the workflow: full checking everywhere *)
  let naive = Redfat.harden binary in
  let hr = Redfat.run naive.binary libredfat in
  Printf.printf "naive full checking: %s   <- a FALSE POSITIVE\n"
    (Redfat.verdict_to_string hr.verdict);

  (* phase 1: profile against a test suite (Figure 5, step 1) *)
  print_endline "\nphase 1: profiling against the test suite...";
  let eng = Engine.Pipeline.create ~jobs:1 ~cache:false () in
  let allowlist = Engine.Pipeline.profile eng ~test_suite:[ [] ] binary in
  Printf.printf "  allow.lst has %d sites\n" (List.length allowlist);
  Profile.Allowlist.save "/tmp/redfat_allow.lst" allowlist;
  print_endline "  (saved to /tmp/redfat_allow.lst, one hex site per line)";

  (* phase 2: production hardening with the allow-list *)
  print_endline "\nphase 2: production hardening with the allow-list...";
  let prod =
    Redfat.harden
      ~opts:(Redfat.Rewrite.production
               ~allowlist:(Profile.Allowlist.load "/tmp/redfat_allow.lst"))
      binary
  in
  Printf.printf "  %d sites -> (Redzone)+(LowFat), %d sites -> (Redzone)-only\n"
    prod.stats.full_sites prod.stats.redzone_sites;
  let hr = Redfat.run prod.binary libredfat in
  Printf.printf "  production run: %s   <- no false positive\n"
    (Redfat.verdict_to_string hr.verdict);

  (* and the production binary still detects real attacks through the
     redzone-only fallback *)
  let attack_prog =
    Minic.Ast.program
      [
        Minic.Ast.func ~name:"main"
          [
            let_ "a" (alloc_elems (i 8));
            let_ "k" Input;
            Minic.Ast.Store (E8, v "a" -: i 32, v "k", i 7);
            return_ (i 0);
          ];
      ]
  in
  let abin = Minic.Codegen.compile attack_prog in
  let allow = Engine.Pipeline.profile eng ~test_suite:[ [ 5 ] ] abin in
  Engine.Pipeline.close eng;
  let ahard =
    Redfat.harden ~opts:(Redfat.Rewrite.production ~allowlist:allow) abin
  in
  (* k=5 writes a[1]: fine; k=200 overflows through the same site, and
     even though the site is (Redzone)-only, the incremental redzone
     check still fires when the access hits poisoned memory *)
  let ok = Redfat.run ~inputs:[ 5 ] ahard.binary libredfat in
  let bad = Redfat.run ~inputs:[ 12 ] ahard.binary libredfat in
  Printf.printf
    "\nexcluded site, benign input:  %s\nexcluded site, overflow input: %s\n"
    (Redfat.verdict_to_string ok.verdict)
    (Redfat.verdict_to_string bad.verdict);
  print_endline
    "\neven sites excluded from the allow-list keep (Redzone) protection:\n\
     opportunistic hardening never drops below the state of the art."
