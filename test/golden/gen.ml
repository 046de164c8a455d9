(* Print the exact-results table; `make vm-golden` redirects it into
   test/golden/vm_golden.expected. *)
let () = List.iter print_endline (Vm_golden.lines ())
