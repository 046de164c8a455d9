(* Print an exact-results table: `make vm-golden` redirects the VM
   table into test/golden/vm_golden.expected, `make digest-golden` the
   byte-digest table into test/golden/digest_golden.expected and
   `make serve-golden` the serve responses into
   test/golden/serve_golden.expected. *)
let () =
  let lines =
    match Sys.argv with
    | [| _; "digest" |] -> Digest_golden.lines ()
    | [| _; "serve" |] -> Serve_golden.lines ()
    | _ -> Vm_golden.lines ()
  in
  List.iter print_endline lines
