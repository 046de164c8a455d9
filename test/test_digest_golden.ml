(* The byte pin of the patch layer: the MD5 of every binary in the
   digest corpus (test/golden/digest_golden.ml) must equal the table in
   golden/digest_golden.expected.  A refactor of the rewriter must pass
   it unmodified; only an intentional change to the emitted bytes may
   regenerate the table, with `make digest-golden`. *)

let expected_file = "golden/digest_golden.expected"

let test_digests_match () =
  let expected =
    In_channel.with_open_text expected_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let actual = Digest_golden.lines () in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (Alcotest.(check string) "digest") expected actual

let tests =
  [
    Alcotest.test_case "binary digests match the table" `Quick
      test_digests_match;
  ]
