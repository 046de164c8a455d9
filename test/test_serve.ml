(* The serving layer: LRU hot-tier semantics (byte-bounded eviction,
   second-touch admission, single-flight deduplication), the wire
   protocol, request handling with per-request fault isolation, and
   parallel-client == sequential determinism. *)

module Lru = Serve.Lru
module Proto = Serve.Proto
module Server = Serve.Server
module J = Obs.Json

let blob n c = String.make n c

(* --- the LRU hot tier ------------------------------------------------ *)

(* first touch computes but only ghosts the key; the second touch
   computes again and admits; the third is a hit served without
   computing *)
let test_second_touch () =
  let l = Lru.create ~cap_bytes:1000 () in
  let computes = ref 0 in
  let get () =
    Lru.get l ~key:"k" (fun () -> incr computes; blob 10 'a')
  in
  let _, o1 = get () in
  Alcotest.(check string) "first touch misses" "miss" (Lru.outcome_name o1);
  Alcotest.(check bool) "not yet resident" false (Lru.mem l "k");
  let _, o2 = get () in
  Alcotest.(check string) "second touch misses" "miss" (Lru.outcome_name o2);
  Alcotest.(check bool) "now resident" true (Lru.mem l "k");
  let v, o3 = get () in
  Alcotest.(check string) "third touch hits" "hit" (Lru.outcome_name o3);
  Alcotest.(check string) "hit serves the blob" (blob 10 'a') v;
  Alcotest.(check int) "computed exactly twice" 2 !computes;
  let st = Lru.stats l in
  Alcotest.(check int) "hits" 1 st.Lru.hits;
  Alcotest.(check int) "misses" 2 st.Lru.misses;
  Alcotest.(check int) "admitted" 1 st.Lru.admitted;
  Alcotest.(check int) "bytes" 10 st.Lru.bytes

(* admit a/b/c (40 bytes each) into a 100-byte cache: admitting c must
   evict the least recently used key, and recency follows touches *)
let test_eviction_order () =
  let l = Lru.create ~cap_bytes:100 () in
  let admit k =
    (* two touches: ghost, then admit *)
    ignore (Lru.get l ~key:k (fun () -> blob 40 k.[0]));
    ignore (Lru.get l ~key:k (fun () -> blob 40 k.[0]))
  in
  admit "a";
  admit "b";
  (* touch a so b is now the LRU victim *)
  ignore (Lru.get l ~key:"a" (fun () -> assert false));
  admit "c";
  Alcotest.(check (list string)) "b evicted, c most recent" [ "c"; "a" ]
    (Lru.keys_mru l);
  let st = Lru.stats l in
  Alcotest.(check int) "one eviction" 1 st.Lru.evictions;
  Alcotest.(check int) "bytes stay bounded" 80 st.Lru.bytes;
  (* the evicted key fell back into the ghost set: one computation
     re-admits it (no second probation) *)
  ignore (Lru.get l ~key:"b" (fun () -> blob 40 'b'));
  Alcotest.(check bool) "evicted key re-admits on next compute" true
    (Lru.mem l "b")

let test_oversize () =
  let l = Lru.create ~cap_bytes:50 () in
  ignore (Lru.get l ~key:"big" (fun () -> blob 60 'x'));
  ignore (Lru.get l ~key:"big" (fun () -> blob 60 'x'));
  Alcotest.(check bool) "oversize blob never admitted" false
    (Lru.mem l "big");
  let st = Lru.stats l in
  Alcotest.(check int) "oversize counted" 1 st.Lru.oversize;
  Alcotest.(check int) "nothing evicted" 0 st.Lru.evictions;
  Alcotest.(check int) "no bytes resident" 0 st.Lru.bytes

(* four domains race on one absent key with a slow computation: exactly
   one computes (the others coalesce), and the burst itself proves the
   key hot, so the blob is admitted immediately *)
let test_single_flight () =
  let l = Lru.create ~cap_bytes:1000 () in
  let computes = Atomic.make 0 in
  let work () =
    Lru.get l ~key:"k" (fun () ->
        Atomic.incr computes;
        Unix.sleepf 0.2;
        blob 8 'z')
  in
  let ds = List.init 4 (fun _ -> Domain.spawn work) in
  let results = List.map Domain.join ds in
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  List.iter
    (fun (v, _) -> Alcotest.(check string) "all share the blob" (blob 8 'z') v)
    results;
  let st = Lru.stats l in
  Alcotest.(check int) "one miss (the leader)" 1 st.Lru.misses;
  Alcotest.(check int) "three coalesced waiters" 3 st.Lru.coalesced;
  Alcotest.(check bool) "burst admits immediately" true (Lru.mem l "k");
  (* a failing leader re-raises in every waiter and admits nothing *)
  let fails =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            match Lru.get l ~key:"boom" (fun () ->
                Unix.sleepf 0.05;
                failwith "poisoned")
            with
            | _ -> false
            | exception Failure _ -> true))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "exception reaches caller" true
        (Domain.join d))
    fails;
  Alcotest.(check bool) "failed computation not admitted" false
    (Lru.mem l "boom")

(* --- the wire protocol ----------------------------------------------- *)

let test_proto () =
  (match
     Proto.parse_request
       {|{"id":"r1","op":"harden","target":"spec:mcf","backend":"temporal","hoist":true,"extra":"ignored"}|}
   with
  | Error e -> Alcotest.fail e
  | Ok rq ->
    Alcotest.(check string) "id" "r1" rq.Proto.rq_id;
    Alcotest.(check string) "op" "harden" (Proto.op_name rq.Proto.rq_op);
    Alcotest.(check string) "target" "spec:mcf" rq.Proto.rq_target;
    Alcotest.(check string) "backend" "temporal"
      (Backend.Check_backend.name rq.Proto.rq_backend);
    Alcotest.(check bool) "hoist" true rq.Proto.rq_hoist);
  let err line =
    match Proto.parse_request line with Error e -> e | Ok _ -> "OK"
  in
  Alcotest.(check bool) "garbage is a parse error" true
    (String.length (err "not json") > 2);
  Alcotest.(check string) "op required" "missing \"op\"" (err {|{"id":"x"}|});
  Alcotest.(check bool) "unknown op rejected" true
    (String.length (err {|{"op":"frob"}|}) > 0);
  Alcotest.(check bool) "target required for harden" true
    (String.length (err {|{"op":"harden"}|}) > 0);
  Alcotest.(check bool) "unknown backend rejected" true
    (String.length (err {|{"op":"harden","target":"t","backend":"x"}|}) > 0);
  (match Proto.parse_request {|{"op":"ping"}|} with
  | Ok rq -> Alcotest.(check string) "id defaults" "-" rq.Proto.rq_id
  | Error e -> Alcotest.fail e);
  (* response rendering round-trips through the JSON reader *)
  let line =
    Proto.response ~id:"r9" ~op:Proto.Harden ~ok:true
      [ ("n", J.Int 42); ("s", J.Str "a\"b"); ("f", J.Num 1.5) ]
  in
  (match J.parse line with
  | Error e -> Alcotest.fail e
  | Ok j ->
    Alcotest.(check (option string)) "id round-trips" (Some "r9")
      (Option.bind (J.member "id" j) J.to_str);
    Alcotest.(check (option string)) "escaped string round-trips"
      (Some "a\"b")
      (Option.bind (J.member "s" j) J.to_str));
  Alcotest.(check bool) "response_ok" true (Proto.response_ok line);
  Alcotest.(check bool) "error_response is not ok" false
    (Proto.response_ok (Proto.error_response ~id:"-" ~detail:"x"))

(* --- the server ------------------------------------------------------ *)

let with_server ?(jobs = 1) ?inject f =
  let inject =
    match inject with
    | None -> Engine.Faultinject.none
    | Some s -> (
      match Engine.Faultinject.parse s with
      | Ok t -> t
      | Error e -> Alcotest.fail e)
  in
  let eng = Engine.Pipeline.create ~jobs ~cache:true ~inject () in
  let srv = Server.create eng in
  Fun.protect ~finally:(fun () -> Engine.Pipeline.close eng) (fun () -> f srv)

let field name line =
  match J.parse line with
  | Error e -> Alcotest.fail ("bad response JSON: " ^ e)
  | Ok j -> J.member name j

let str_field name line = Option.bind (field name line) J.to_str

(* responses are deterministic except for the "cache" outcome (which
   depends on scheduling under parallel clients): canonicalize by
   dropping it *)
let strip_cache line =
  match J.parse line with
  | Error e -> Alcotest.fail e
  | Ok (J.Obj fields) ->
    String.concat ";"
      (List.filter_map
         (fun (k, v) ->
           if k = "cache" then None
           else
             Some
               (k ^ "="
               ^
               match v with
               | J.Str s -> s
               | J.Num n -> string_of_float n
               | J.Bool b -> string_of_bool b
               | _ -> "?"))
         fields)
  | Ok _ -> Alcotest.fail "response is not an object"

let test_script_mode () =
  with_server @@ fun srv ->
  let out = ref [] in
  let failed =
    Server.run_script srv
      ~lines:
        [
          {|{"id":"p","op":"ping"}|};
          {|{"id":"h1","op":"harden","target":"spec:mcf"}|};
          {|{"id":"h2","op":"harden","target":"spec:mcf"}|};
          {|{"id":"h3","op":"harden","target":"spec:mcf"}|};
          "";
          {|{"id":"v","op":"verify","target":"spec:mcf"}|};
          {|{"id":"t","op":"trace","target":"spec:mcf"}|};
          {|{"id":"s","op":"stats"}|};
          {|{"id":"q","op":"shutdown"}|};
          {|{"id":"never","op":"ping"}|};
        ]
      ~emit:(fun r -> out := r :: !out)
  in
  let out = List.rev !out in
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check int) "shutdown stops the script" 8 (List.length out);
  let h3 = List.nth out 3 in
  Alcotest.(check (option string)) "third harden hits" (Some "hit")
    (str_field "cache" h3);
  let s = List.nth out 6 in
  (match Option.bind (field "serve.cache.hits" s) J.to_num with
  | Some n -> Alcotest.(check bool) "stats report hits" true (n >= 1.)
  | None -> Alcotest.fail "stats response lacks serve.cache.hits");
  Alcotest.(check bool) "stop flag set" true (Server.stop_requested srv);
  (* the obs counters the CI smoke greps for *)
  let o = Engine.Pipeline.obs (Server.engine srv) in
  Alcotest.(check bool) "serve.cache.hits counter nonzero" true
    (Obs.counter o "serve.cache.hits" > 0);
  Alcotest.(check int) "request counters" 3
    (Obs.counter o "serve.req.harden")

(* an injected fault inside one request answers ok:false with the
   typed fault and leaves the daemon serving (including the same
   target again, because injected keys never pollute clean keys — the
   injection harness is engine-wide here, so we poison one target) *)
let test_fault_isolation () =
  with_server ~inject:"harden:spec:mcf" @@ fun srv ->
  let r1, ok1 = Server.handle srv {|{"id":"a","op":"harden","target":"spec:mcf"}|} in
  Alcotest.(check bool) "poisoned request fails" false ok1;
  (match Option.bind (field "fault" r1) (J.member "code") with
  | Some (J.Str code) ->
    Alcotest.(check string) "typed fault code" "rewrite.abort" code
  | _ -> Alcotest.fail ("no fault code in: " ^ r1));
  let _, ok2 = Server.handle srv {|{"id":"b","op":"harden","target":"spec:gcc"}|} in
  Alcotest.(check bool) "other targets unaffected" true ok2;
  let _, ok3 = Server.handle srv {|{"id":"c","op":"ping"}|} in
  Alcotest.(check bool) "daemon still serving" true ok3;
  let o = Engine.Pipeline.obs (Server.engine srv) in
  Alcotest.(check bool) "serve.fault counted" true
    (Obs.counter o "serve.fault" >= 1)

(* a line of a million open brackets is a bad-JSON data error,
   rejected at the nesting bound rather than after a million recursive
   descents, and the next request still answers *)
let test_deep_nesting_line () =
  with_server @@ fun srv ->
  let r, ok = Server.handle srv (String.make 1_000_000 '[') in
  Alcotest.(check bool) "deep line fails" false ok;
  Alcotest.(check bool) ("bad JSON at the nesting bound: " ^ r) true
    (match str_field "error" r with
     | Some e ->
       String.starts_with ~prefix:"bad JSON" e
       && String.ends_with ~suffix:"nesting deeper than 64" e
     | None -> false);
  let _, ok = Server.handle srv {|{"id":"p","op":"ping"}|} in
  Alcotest.(check bool) "next request answers" true ok

(* a \u escape pair names one code point: the request id echoes as
   one 4-byte UTF-8 character; a lone surrogate or a \u escape that is
   not four hex digits is a bad line *)
let test_unicode_escapes () =
  with_server @@ fun srv ->
  let r, ok = Server.handle srv {|{"id":"\ud83d\ude00","op":"ping"}|} in
  Alcotest.(check bool) "pair answers" true ok;
  Alcotest.(check (option string)) "id is U+1F600" (Some "\xF0\x9F\x98\x80")
    (str_field "id" r);
  let r, ok = Server.handle srv {|{"id":"\u00e9\u20ac","op":"ping"}|} in
  Alcotest.(check bool) "BMP answers" true ok;
  Alcotest.(check (option string)) "BMP id" (Some "\xC3\xA9\xE2\x82\xAC")
    (str_field "id" r);
  List.iter
    (fun id ->
      let r, ok =
        Server.handle srv (Printf.sprintf {|{"id":"%s","op":"ping"}|} id)
      in
      Alcotest.(check bool) (id ^ " fails") false ok;
      Alcotest.(check bool) (id ^ " is bad JSON: " ^ r) true
        (match str_field "error" r with
         | Some e -> String.starts_with ~prefix:"bad JSON" e
         | None -> false))
    [ {|\ud83d|}; {|\ud83dx|}; {|\ud83d\u0041|}; {|\ude00|}; {|\u_123|};
      {|\u12g4|} ]

(* every registry answers an unknown name with input.target, the
   request surface and the CLI's binary resolver alike *)
let test_unknown_targets () =
  with_server @@ fun srv ->
  List.iter
    (fun tgt ->
      let r, ok =
        Server.handle srv
          (Printf.sprintf {|{"id":"u","op":"harden","target":"%s"}|} tgt)
      in
      Alcotest.(check bool) (tgt ^ " fails") false ok;
      (match Option.bind (field "fault" r) (J.member "code") with
      | Some (J.Str code) -> Alcotest.(check string) tgt "input.target" code
      | _ -> Alcotest.fail ("no fault code in: " ^ r));
      match Serve.Targets.find_workload tgt with
      | _ -> Alcotest.failf "%s resolved" tgt
      | exception e ->
        Alcotest.(check string) (tgt ^ " workload") "input.target"
          Engine.Fault.(code (of_exn e)))
    [ "spec:nope"; "cve:nope"; "kraken:nope"; "uaf:nope"; "bug:nope";
      "synth:zz"; "synth:0x1"; "nope" ]

(* an injection clause counting [@N] hits of the verify or run point
   fails the same request whether the answer is computed or cached:
   the two hardens compute the artifact (its audit and baseline run are
   hits 1 and 2), so the third request takes hit 3 and fails with the
   typed fault, and the fourth answers *)
let check_injection_pin ~inject ~op ~code_prefix () =
  with_server ~inject @@ fun srv ->
  let req i o =
    Printf.sprintf {|{"id":"%d","op":"%s","target":"spec:mcf"}|} i o
  in
  let answers =
    List.mapi
      (fun i o -> Server.handle srv (req i o))
      [ "harden"; "harden"; op; op ]
  in
  Alcotest.(check (list bool)) "ok, ok, fail, ok" [ true; true; false; true ]
    (List.map snd answers);
  let r3 = fst (List.nth answers 2) in
  match Option.bind (field "fault" r3) (J.member "code") with
  | Some (J.Str code) ->
    Alcotest.(check bool) ("typed " ^ code_prefix ^ "* fault: " ^ code) true
      (String.starts_with ~prefix:code_prefix code)
  | _ -> Alcotest.fail ("no fault code in: " ^ r3)

(* cached == fresh for the per-artifact answers: a verify response's
   [accounted] is the audit total of a fresh harden of the target, and
   every trace response (computed, admitted, then hot) reports the
   verdict, cycles and detections of a direct Log-mode run of it *)
let test_answers_cached_equal_fresh () =
  let targets =
    [
      "../examples/victim.mc"; "../examples/interp.mc";
      "../examples/fortran_idiom.mc"; "spec:mcf"; "spec:bzip2"; "spec:lbm";
    ]
  in
  let fresh = Engine.Pipeline.create ~jobs:1 ~cache:false () in
  Fun.protect ~finally:(fun () -> Engine.Pipeline.close fresh) @@ fun () ->
  with_server @@ fun srv ->
  let num name line =
    match Option.bind (field name line) J.to_num with
    | Some x -> int_of_float x
    | None -> Alcotest.fail ("no " ^ name ^ " in: " ^ line)
  in
  List.iter
    (fun tgt ->
      let prog, train, inputs = Serve.Targets.find_program tgt in
      let bin = Engine.Pipeline.compile fresh prog in
      let allow = Engine.Pipeline.profile fresh ~test_suite:train bin in
      List.iter
        (fun backend ->
          List.iter
            (fun hoist ->
              let what =
                Printf.sprintf "%s %s hoist=%b" tgt
                  (Backend.Check_backend.name backend) hoist
              in
              let hard =
                Engine.Pipeline.harden fresh
                  ~opts:
                    { Redfat.Rewrite.optimized with
                      allowlist = Some allow; backend; hoist }
                  bin
              in
              let bin' = hard.Redfat.Rewrite.binary in
              let total =
                match Redfat.Rewrite.verify bin' with
                | Ok r -> r.Redfat.Verify.total
                | Error e -> Alcotest.fail (what ^ ": " ^ e)
              in
              let hrun =
                Engine.Pipeline.run fresh ~inputs bin'
                  (Hardened { Redfat.Runtime.default_options with mode = Log })
              in
              let req op =
                Printf.sprintf
                  {|{"op":"%s","target":"%s","backend":"%s","hoist":%b}|} op
                  tgt (Backend.Check_backend.name backend) hoist
              in
              let v, ok = Server.handle srv (req "verify") in
              Alcotest.(check bool) (what ^ ": verify ok") true ok;
              Alcotest.(check int) (what ^ ": accounted") total
                (num "accounted" v);
              for _ = 1 to 3 do
                let tr, ok = Server.handle srv (req "trace") in
                Alcotest.(check bool) (what ^ ": trace ok") true ok;
                Alcotest.(check (option string)) (what ^ ": verdict")
                  (Some (Redfat.verdict_to_string hrun.Redfat.verdict))
                  (str_field "verdict" tr);
                Alcotest.(check int) (what ^ ": hardened cycles")
                  hrun.Redfat.run.Redfat.cycles (num "hardened_cycles" tr);
                Alcotest.(check int) (what ^ ": detected")
                  (List.length (Redfat.Runtime.errors hrun.Redfat.state))
                  (num "detected" tr)
              done)
            [ false; true ])
        Backend.Check_backend.all)
    targets

(* the same request mix answered by 4 concurrent client domains and
   by a sequential run must produce identical response sets modulo
   the cache-outcome field *)
let test_parallel_equals_sequential () =
  let mix =
    List.concat_map
      (fun t ->
        [
          Printf.sprintf {|{"id":"%s-h","op":"harden","target":"%s"}|} t t;
          Printf.sprintf {|{"id":"%s-v","op":"verify","target":"%s"}|} t t;
        ])
      [ "spec:mcf"; "spec:bzip2"; "spec:gcc"; "spec:milc" ]
  in
  let sequential =
    with_server @@ fun srv ->
    List.map (fun l -> strip_cache (fst (Server.handle srv l))) mix
  in
  let parallel =
    with_server @@ fun srv ->
    let ds =
      List.map
        (fun l -> Domain.spawn (fun () -> strip_cache (fst (Server.handle srv l))))
        mix
    in
    List.map Domain.join ds
  in
  List.iter2
    (fun s p -> Alcotest.(check string) "parallel == sequential" s p)
    sequential parallel

(* full transport round trip: daemon in a domain, client over the
   Unix socket, shutdown via request *)
let test_socket_round_trip () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "redfat-test-%d.sock" (Unix.getpid ()))
  in
  with_server @@ fun srv ->
  let daemon = Domain.spawn (fun () -> Server.listen srv ~socket:sock) in
  let out = ref [] in
  let failed =
    Server.send ~socket:sock
      ~lines:
        [
          {|{"id":"p","op":"ping"}|};
          {|{"id":"h","op":"harden","target":"spec:mcf"}|};
          {|{"id":"q","op":"shutdown"}|};
        ]
      ~emit:(fun r -> out := r :: !out)
  in
  Domain.join daemon;
  Alcotest.(check int) "all ok over the socket" 0 failed;
  Alcotest.(check int) "three responses" 3 (List.length !out);
  Alcotest.(check bool) "socket unlinked on shutdown" false
    (Sys.file_exists sock)

let tests =
  [
    Alcotest.test_case "lru second-touch admission" `Quick test_second_touch;
    Alcotest.test_case "lru byte-bounded eviction order" `Quick
      test_eviction_order;
    Alcotest.test_case "lru oversize rejection" `Quick test_oversize;
    Alcotest.test_case "lru single-flight" `Quick test_single_flight;
    Alcotest.test_case "wire protocol" `Quick test_proto;
    Alcotest.test_case "script mode end to end" `Quick test_script_mode;
    Alcotest.test_case "deep nesting is a bad line" `Quick
      test_deep_nesting_line;
    Alcotest.test_case "unicode escapes in a request id" `Quick
      test_unicode_escapes;
    Alcotest.test_case "unknown targets are input.target" `Quick
      test_unknown_targets;
    Alcotest.test_case "fault isolation per request" `Quick
      test_fault_isolation;
    Alcotest.test_case "verify injection pin (verify@3)" `Quick
      (check_injection_pin ~inject:"verify:spec:mcf@3" ~op:"verify"
         ~code_prefix:"verify.");
    Alcotest.test_case "run injection pin (run@3)" `Quick
      (check_injection_pin ~inject:"run:spec:mcf@3" ~op:"trace"
         ~code_prefix:"run.");
    Alcotest.test_case "verify/trace answers: cached == fresh" `Quick
      test_answers_cached_equal_fresh;
    Alcotest.test_case "parallel clients == sequential" `Slow
      test_parallel_equals_sequential;
    Alcotest.test_case "socket round trip" `Quick test_socket_round_trip;
  ]
