(* lib/obs: the structured tracing/metrics collector.

   The load-bearing property is merge losslessness: per-domain
   buffers, filled concurrently by pool workers, must merge to exactly
   the counters/histograms a sequential run produces.  Plus span
   nesting discipline and the Chrome exporter round-tripping through
   our own JSON reader. *)

module J = Obs.Json

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool

(* the shared workload: bump counters and feed a histogram per item *)
let work o x =
  Obs.add o "work.items";
  Obs.add o ~n:x "work.sum";
  Obs.observe o "work.value" x;
  x * x

let items = List.init 100 (fun i -> i)

let run_with_jobs jobs =
  let o = Obs.create () in
  let pool = Engine.Pool.create ~jobs ~obs:o () in
  let rs = Engine.Pool.map_list pool (work o) items in
  Engine.Pool.close pool;
  (o, rs)

let test_parallel_merge () =
  let o1, r1 = run_with_jobs 1 in
  let o4, r4 = run_with_jobs 4 in
  check (Alcotest.list Alcotest.int) "results" r1 r4;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "merged counters: parallel == sequential"
    (List.filter (fun (k, _) -> k <> "pool.task") (Obs.counters o1))
    (List.filter (fun (k, _) -> k <> "pool.task") (Obs.counters o4));
  let hist_view o =
    List.map
      (fun (k, (h : Obs.hist)) ->
        (k, (h.h_count, h.h_sum, h.h_min, h.h_max, h.h_buckets)))
      (Obs.histograms o)
  in
  checkb "merged histograms: parallel == sequential" true
    (hist_view o1 = hist_view o4);
  check Alcotest.int "work.items counter" (List.length items)
    (Obs.counter o4 "work.items");
  check Alcotest.int "work.sum counter"
    (List.fold_left ( + ) 0 items)
    (Obs.counter o4 "work.sum");
  checkb "both well-formed" true (Obs.well_formed o1 && Obs.well_formed o4)

let test_span_nesting () =
  let o = Obs.create () in
  let v =
    Obs.span o "outer" (fun () ->
        Obs.span o ~cat:"inner-cat" "inner" (fun () -> 41) + 1)
  in
  check Alcotest.int "span returns the thunk's value" 42 v;
  (* an exception must still close the span *)
  (try Obs.span o "raising" (fun () -> failwith "boom") with Failure _ -> ());
  checkb "well-formed after exception" true (Obs.well_formed o);
  let sp name =
    List.find (fun (s : Obs.span) -> s.sp_name = name) (Obs.spans o)
  in
  check Alcotest.int "outer depth" 0 (sp "outer").sp_depth;
  check Alcotest.int "inner depth" 1 (sp "inner").sp_depth;
  check Alcotest.string "inner category" "inner-cat" (sp "inner").sp_cat;
  checkb "inner starts within outer" true
    ((sp "inner").sp_start >= (sp "outer").sp_start);
  (* category filter: the stage view must not see other categories *)
  check Alcotest.int "span_summary ~cat filters" 1
    (List.length (Obs.span_summary ~cat:"inner-cat" o))

let test_chrome_roundtrip () =
  let o = Obs.create () in
  Obs.span o ~cat:"stage" "compile" (fun () -> ());
  Obs.span o ~cat:"rewrite" "rw.emit \"quoted\"" (fun () -> ());
  Obs.add o ~n:7 "cache.hit";
  let json = Obs.to_chrome ~process_name:"redfat-test" o in
  let v =
    match J.parse json with
    | Ok v -> v
    | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  in
  let events =
    match Option.bind (J.member "traceEvents" v) J.to_arr with
    | Some es -> es
    | None -> Alcotest.fail "no traceEvents array"
  in
  let field name e = Option.bind (J.member name e) J.to_str in
  let by_ph ph =
    List.filter (fun e -> field "ph" e = Some ph) events
  in
  let names es = List.filter_map (field "name") es in
  checkb "span slice for compile" true (List.mem "compile" (names (by_ph "X")));
  checkb "escaped span name survives" true
    (List.mem "rw.emit \"quoted\"" (names (by_ph "X")));
  checkb "counter sample for cache.hit" true
    (List.mem "cache.hit" (names (by_ph "C")));
  (* the counter's value rides in args *)
  let hit =
    List.find (fun e -> field "name" e = Some "cache.hit") (by_ph "C")
  in
  let value =
    Option.bind (J.member "args" hit) (fun a ->
        Option.bind (J.member "value" a) J.to_num)
  in
  check (Alcotest.option (Alcotest.float 0.0)) "counter value" (Some 7.0) value;
  checkb "process metadata present" true
    (List.exists (fun e -> field "name" e = Some "process_name") (by_ph "M"))

let test_engine_trace () =
  (* the engine end of the contract: a pipeline run's trace export
     parses and covers the stages it ran *)
  let eng = Engine.Pipeline.create ~jobs:2 ~cache:false () in
  let prog =
    Minic.(
      Ast.program
        [ Ast.func ~name:"main" Build.[ print_ (i 7); return_ (i 0) ] ])
  in
  let bin = Engine.Pipeline.compile eng prog in
  let _ = Engine.Pipeline.harden eng bin in
  let trace = Engine.Pipeline.trace_json eng in
  Engine.Pipeline.close eng;
  match J.parse trace with
  | Error e -> Alcotest.failf "engine trace does not parse: %s" e
  | Ok v ->
    let events =
      Option.value ~default:[]
        (Option.bind (J.member "traceEvents" v) J.to_arr)
    in
    let stage name =
      List.exists
        (fun e ->
          Option.bind (J.member "name" e) J.to_str = Some name
          && Option.bind (J.member "cat" e) J.to_str = Some "stage")
        events
    in
    checkb "compile stage span" true (stage "compile");
    checkb "harden stage span" true (stage "harden")

let test_json_reader () =
  let ok s = match J.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  check (Alcotest.option (Alcotest.float 1e-9)) "number" (Some 1.5)
    (J.to_num (ok "1.5"));
  check (Alcotest.option Alcotest.string) "escapes" (Some "a\"b\\c\nd")
    (J.to_str (ok {|"a\"b\\c\nd"|}));
  checkb "nested lookup" true
    (Option.bind (J.member "xs" (ok {|{"xs": [1, 2, 3]}|})) J.to_arr
     |> Option.map List.length = Some 3);
  checkb "truncated input is an error" true
    (match J.parse "{\"a\": 1" with Error _ -> true | Ok _ -> false);
  checkb "trailing garbage is an error" true
    (match J.parse "1 x" with Error _ -> true | Ok _ -> false)

(* the reader rejects nesting deeper than 64 without descending into
   it, and our deepest document (a report's histogram buckets) is well
   inside the bound *)
let test_json_nesting_bound () =
  let nested d = String.make d '[' ^ String.make d ']' in
  checkb "64 deep parses" true (Result.is_ok (J.parse (nested 64)));
  checkb "65 deep is an error" true (Result.is_error (J.parse (nested 65)));
  checkb "65 deep objects are an error" true
    (Result.is_error
       (J.parse
          (String.concat "" (List.init 65 (fun _ -> {|{"a": |}))
          ^ "1" ^ String.make 65 '}')));
  let r = Engine.Report.create () in
  List.iter (Obs.observe (Engine.Report.obs r) "h") [ 1; 5; 5; 300 ];
  match J.parse (Engine.Report.to_json r) with
  | Error e -> Alcotest.fail e
  | Ok v ->
    let buckets =
      Option.bind (J.member "histograms" v) (J.member "h")
      |> Fun.flip Option.bind (J.member "buckets")
      |> Fun.flip Option.bind J.to_arr
    in
    check Alcotest.(option int) "histogram buckets read back" (Some 3)
      (Option.map List.length buckets)

(* --- the writer --------------------------------------------------------- *)

(* random documents: strings of arbitrary bytes, any int, and floats
   drawn from the values [%.6g] prints exactly (at most six significant
   digits) *)
let gen_json =
  let open QCheck.Gen in
  let num =
    map2
      (fun m e -> J.Num (float_of_string (Printf.sprintf "%de%d" m e)))
      (int_range (-999_999) 999_999)
      (int_range (-12) 12)
  in
  let bytes = string_size ~gen:char (int_bound 12) in
  let leaf =
    oneof
      [
        return J.Null; map (fun b -> J.Bool b) bool; map (fun i -> J.Int i) int;
        num; map (fun s -> J.Str s) bytes;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then leaf
         else
           let sub = list_size (int_bound 4) (self (depth - 1)) in
           frequency
             [
               (2, leaf); (1, map (fun l -> J.Arr l) sub);
               ( 1,
                 map
                   (fun l -> J.Obj l)
                   (list_size (int_bound 4) (pair bytes (self (depth - 1)))) );
             ])

(* what the reader yields for a written value: [Int] comes back as [Num] *)
let rec read_back = function
  | J.Int i -> J.Num (float_of_int i)
  | J.Arr l -> J.Arr (List.map read_back l)
  | J.Obj l -> J.Obj (List.map (fun (k, v) -> (k, read_back v)) l)
  | v -> v

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json writer round-trips through the reader"
    (QCheck.make ~print:(J.to_string ~lines:2) gen_json)
    (fun v ->
      List.for_all
        (fun lines -> J.parse (J.to_string ~lines v) = Ok (read_back v))
        [ 0; 2 ]
      && not (String.contains (J.to_string v) '\n'))

(* a dropped collector takes its spans with it: the recording
   domain's slot for it must not keep its buffer alive *)
let test_dropped_collector_collected () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let[@inline never] record () =
    let o = Obs.create () in
    for _ = 1 to 20_000 do
      Obs.span o "s" ignore
    done;
    checkb "recorded" true (List.length (Obs.spans o) = 20_000)
  in
  let before = live () in
  record ();
  (* 20,000 spans take well over 200,000 words while reachable *)
  checkb "spans freed" true (live () - before < 20_000)

let tests =
  [
    Alcotest.test_case "parallel merge == sequential" `Quick
      test_parallel_merge;
    Alcotest.test_case "span nesting well-formed" `Quick test_span_nesting;
    Alcotest.test_case "dropped collector is collected" `Quick
      test_dropped_collector_collected;
    Alcotest.test_case "chrome export round-trips" `Quick
      test_chrome_roundtrip;
    Alcotest.test_case "engine trace covers stages" `Quick test_engine_trace;
    Alcotest.test_case "json reader" `Quick test_json_reader;
    Alcotest.test_case "json reader bounds nesting" `Quick
      test_json_nesting_bound;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
  ]
