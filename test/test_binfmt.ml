(* RELF container serialization. *)

module R = Binfmt.Relf

let sample =
  {
    R.entry = 0x400010;
    pic = false;
    stripped = true;
    sections =
      [
        R.section ~executable:true ~name:".text" ~addr:0x400000
          "\x01\x23\xff\x00binary\ndata";
        R.section ~writable:true ~name:".data" ~addr:0x10000000
          (String.make 64 '\000');
        R.section ~name:".traptab" ~addr:0 "400000 40400000\n";
      ];
  }

let test_roundtrip () =
  let s = R.serialize sample in
  let t = R.parse s in
  Alcotest.(check int) "entry" sample.entry t.entry;
  Alcotest.(check bool) "pic" sample.pic t.pic;
  Alcotest.(check bool) "stripped" sample.stripped t.stripped;
  Alcotest.(check int) "sections" 3 (List.length t.sections);
  List.iter2
    (fun (a : R.section) (b : R.section) ->
      Alcotest.(check string) "name" a.name b.name;
      Alcotest.(check int) "addr" a.addr b.addr;
      Alcotest.(check string) "bytes" a.bytes b.bytes;
      Alcotest.(check bool) "exec" a.executable b.executable;
      Alcotest.(check bool) "writable" a.writable b.writable)
    sample.sections t.sections

let test_file_roundtrip () =
  let path = Filename.temp_file "relf" ".bin" in
  R.save path sample;
  let t = R.load_file path in
  Sys.remove path;
  Alcotest.(check string) "identical" (R.serialize sample) (R.serialize t)

let test_bad_magic () =
  Alcotest.(check bool) "rejects garbage" true
    (match R.parse "ELF\x7fnot this format" with
     | exception Binfmt.Reader.Error _ -> true
     | _ -> false)

let test_truncated () =
  let s = R.serialize sample in
  let cut = String.sub s 0 (String.length s - 10) in
  Alcotest.(check bool) "rejects truncation" true
    (match R.parse cut with exception Binfmt.Reader.Error _ -> true | _ -> false)

let test_helpers () =
  Alcotest.(check bool) "find_section" true
    (R.find_section sample ".data" <> None);
  Alcotest.(check bool) "missing section" true
    (R.find_section sample ".bss" = None);
  Alcotest.(check int) "code_size" 15 (R.code_size sample);
  Alcotest.(check int) "total_size"
    (15 + 64 + 16)
    (R.total_size sample);
  Alcotest.(check string) "text_exn" ".text" (R.text_exn sample).name

let test_load_into () =
  let mem = Vm.Mem.create () in
  R.load_into mem sample;
  Alcotest.(check int) "text byte" 0x01 (Vm.Mem.read mem ~addr:0x400000 ~len:1);
  Alcotest.(check int) "data zeroed" 0
    (Vm.Mem.read mem ~addr:0x10000000 ~len:8)

let prop_roundtrip =
  let gen_section =
    QCheck.Gen.(
      let* name = oneofl [ ".text"; ".data"; ".x"; "s" ] in
      let* addr = int_range 0 0x1000000 in
      let* len = int_range 0 200 in
      let* bytes = string_size ~gen:(map Char.chr (int_range 0 255)) (return len) in
      let* e = bool and* w = bool in
      return (R.section ~executable:e ~writable:w ~name ~addr bytes))
  in
  let gen =
    QCheck.Gen.(
      let* entry = int_range 0 0x7fffffff in
      let* pic = bool and* stripped = bool in
      let* sections = list_size (int_range 0 5) gen_section in
      return { R.entry; pic; stripped; sections })
  in
  QCheck.Test.make ~count:300 ~name:"RELF serialize/parse round-trip"
    (QCheck.make gen) (fun t -> R.serialize (R.parse (R.serialize t)) = R.serialize t)

let tests =
  [
    Alcotest.test_case "round-trip" `Quick test_roundtrip;
    Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "bad magic" `Quick test_bad_magic;
    Alcotest.test_case "truncated" `Quick test_truncated;
    Alcotest.test_case "helpers" `Quick test_helpers;
    Alcotest.test_case "load into vm" `Quick test_load_into;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
