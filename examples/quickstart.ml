(* Quickstart: harden a binary and watch it stop an attack.

   Run with:  dune exec examples/quickstart.exe

   The victim program reads an index from its input and writes through
   it unchecked — the classic non-incremental heap overflow (paper
   snippet (b), §2.1).  We compile it, run it natively, harden it with
   RedFat, and demonstrate that the benign input still works while the
   attack input is stopped. *)

open Minic.Build

let libredfat = Redfat.Hardened Redfat.Runtime.default_options

let victim_program =
  Minic.Ast.program
    [
      Minic.Ast.func ~name:"main"
        [
          (* int *array = malloc(8 * sizeof(int)); *)
          let_ "array" (alloc_elems (i 8));
          (* a second heap object the attacker wants to corrupt *)
          let_ "secret" (alloc_elems (i 8));
          set (v "secret") (i 4) (i 42);
          (* int i = input(); array[i] = val;  <- snippet (b) *)
          let_ "idx" Input;
          set (v "array") (v "idx") (i 0x41414141);
          print_ (idx (v "secret") (i 4));
          return_ (i 0);
        ];
    ]

let () =
  print_endline "== RedFat quickstart ==\n";
  (* 1. compile the victim to a stripped binary *)
  let binary = Minic.Codegen.compile victim_program in
  Printf.printf "compiled victim: %d bytes of code (stripped)\n"
    (Binfmt.Relf.code_size binary);

  (* 2. native baseline run, benign input *)
  let { Redfat.run; verdict; _ } = Redfat.run ~inputs:[ 3 ] binary Baseline in
  Printf.printf "baseline, idx=3:  secret=%d  (%s)\n"
    (List.hd run.outputs)
    (Redfat.verdict_to_string verdict);

  (* 3. the attack works natively: idx=12 silently corrupts 'secret'
     (12 * 8 bytes skips the redzone gap between the two objects) *)
  let run = (Redfat.run ~inputs:[ 12 ] binary Baseline).run in
  Printf.printf "baseline, idx=12: secret=%d  <- silently corrupted!\n"
    (List.hd run.outputs);

  (* 4. harden the binary: one call *)
  let hard = Redfat.harden binary in
  Printf.printf "\nhardened: %d site(s) instrumented, %d trampoline bytes\n"
    hard.stats.instrumented hard.stats.tramp_bytes;

  (* 5. benign input still works... *)
  let hr = Redfat.run ~inputs:[ 3 ] hard.binary libredfat in
  Printf.printf "hardened, idx=3:  secret=%d  (%s)\n"
    (List.hd hr.run.outputs)
    (Redfat.verdict_to_string hr.verdict);

  (* 6. ...and the attack is stopped before the write lands *)
  let hr = Redfat.run ~inputs:[ 12 ] hard.binary libredfat in
  Printf.printf "hardened, idx=12: %s\n" (Redfat.verdict_to_string hr.verdict);

  (* 7. overhead of the protection on this program *)
  let base = (Redfat.run ~inputs:[ 3 ] binary Baseline).run in
  let hr = Redfat.run ~inputs:[ 3 ] hard.binary libredfat in
  Printf.printf "\noverhead on the benign run: %.2fx (%d -> %d cycles)\n"
    (float_of_int hr.run.cycles /. float_of_int base.cycles)
    base.cycles hr.run.cycles
