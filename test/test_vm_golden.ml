(* The exact-results pin: every VM result of the golden corpus
   (test/golden/vm_golden.ml) must equal the table recorded in
   golden/vm_golden.expected.  The bench gates allow cycle drift;
   this does not.  After an intentional cost-model change, regenerate
   the table with `make vm-golden` and commit it with the change. *)

let expected_file = "golden/vm_golden.expected"

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_exact_results () =
  let rec compare k = function
    | [], [] -> ()
    | e :: es, a :: rest when e = a -> compare (k + 1) (es, rest)
    | e :: _, a :: _ ->
      Alcotest.failf "line %d differs from %s:\nexpected: %s\n  actual: %s" k
        expected_file e a
    | e :: _, [] -> Alcotest.failf "line %d missing: %s" k e
    | [], a :: _ -> Alcotest.failf "line %d not in %s: %s" k expected_file a
  in
  compare 1 (read_lines expected_file, Vm_golden.lines ())

let tests =
  [
    Alcotest.test_case "exact results match the table" `Quick
      test_exact_results;
  ]
