(* The shared corrupt-input corpus loader.  test/corrupt/ holds one
   file per malformed-input shape (bad magic, truncated header,
   truncated nested section, integers that do not fit an int, binary
   garbage, empty input, a non-hex allow.lst line, broken MiniC
   sources); this module is the single way tests reach them, so adding
   a fixture is one file drop — test_fuzz.ml automatically feeds every
   file to the matching parser and asserts the typed rejection, and
   test_fault.ml resolves its fixtures by name through [path]. *)

let dir = "corrupt"

(* (filename, contents), sorted by name for deterministic iteration *)
let load () : (string * string) list =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         ( f,
           In_channel.with_open_bin (Filename.concat dir f)
             In_channel.input_all ))

(* the split mirrors `redfat fuzz --corpus`: .mc files seed the MiniC
   parser campaign, everything else the RELF one *)
let minic () =
  List.filter (fun (f, _) -> Filename.check_suffix f ".mc") (load ())

let relf () =
  List.filter (fun (f, _) -> not (Filename.check_suffix f ".mc")) (load ())

let path name =
  let p = Filename.concat dir name in
  if not (Sys.file_exists p) then
    failwith ("corrupt corpus: no fixture named " ^ name);
  p
