(* The serving daemon's answer pin: every script-mode response line of
   the request list in test/golden/serve_golden.ml must equal the table
   in golden/serve_golden.expected.  A change to how the daemon
   computes or caches its answers must pass it unmodified; only an
   intentional change to an answer may regenerate the table, with
   `make serve-golden`. *)

let expected_file = "golden/serve_golden.expected"

let test_responses_match () =
  let expected =
    In_channel.with_open_text expected_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  (* the request list names examples/*.mc relative to the build root *)
  let cwd = Sys.getcwd () in
  let actual =
    Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
    Sys.chdir "..";
    Serve_golden.lines ()
  in
  Alcotest.(check int) "line count" (List.length expected) (List.length actual);
  List.iter2 (Alcotest.(check string) "response") expected actual

let tests =
  [
    Alcotest.test_case "script-mode responses match the table" `Quick
      test_responses_match;
  ]
