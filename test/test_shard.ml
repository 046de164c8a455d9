(* Function-granular sharding parity: rewriting a binary's function
   regions separately (with chained trampoline bases) and splicing the
   parts back together must be byte-identical to one monolithic
   rewrite — same serialized binary, same trap table, same [.elimtab],
   same stats — across presets and backends.  This equivalence is what
   licenses the function-granular incremental cache. *)

module Df = Dataflow
module Rw = Rewriter.Rewrite
module Shard = Rewriter.Shard
module CB = Backend.Check_backend

(* The slices of a binary the partitioner must accept. *)
let partitioned name binary =
  let sls = Shard.slices binary in
  if List.length sls < 2 then Alcotest.failf "%s: expected >= 2 slices" name;
  sls

let check_parity name opts binary slices =
  let mono = Rw.rewrite opts binary in
  let sharded =
    Shard.rewrite ~tramp_base:Rw.default_tramp_base binary slices
      (fun ~tramp_base _ bin -> Rw.rewrite ~tramp_base opts bin)
  in
  Alcotest.(check bool)
    (name ^ ": serialized binary byte-identical")
    true
    (Binfmt.Relf.serialize mono.Rw.binary
    = Binfmt.Relf.serialize sharded.Rw.binary);
  Alcotest.(check (list (pair int int)))
    (name ^ ": trap table") mono.Rw.traps sharded.Rw.traps;
  Alcotest.(check int)
    (name ^ ": checks emitted")
    mono.Rw.stats.checks_emitted sharded.Rw.stats.checks_emitted;
  Alcotest.(check int)
    (name ^ ": eliminated (global)")
    mono.Rw.stats.eliminated_global sharded.Rw.stats.eliminated_global;
  Alcotest.(check (list (pair string int)))
    (name ^ ": checks by kind")
    mono.Rw.stats.checks_by_kind sharded.Rw.stats.checks_by_kind;
  match Rw.verify sharded.Rw.binary with
  | Ok r ->
    Alcotest.(check bool) (name ^ ": verifies") true (Df.Verify.ok r)
  | Error e -> Alcotest.fail (name ^ ": " ^ e)

(* Every bench in the suite, default optimized preset. *)
let test_corpus_optimized () =
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let bin = Workloads.Spec.binary b in
      check_parity b.name Rw.optimized bin (partitioned b.name bin))
    Workloads.Spec.all

(* The one-slice layout a declined partition (or a disabled cache)
   falls back to: every SPEC binary, and a seeded-bug binary the
   partitioner declines. *)
let test_whole_slice () =
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let bin = Workloads.Spec.binary b in
      check_parity (b.name ^ "/whole") Rw.optimized bin [ Shard.whole bin ])
    Workloads.Spec.all;
  let c = List.hd Workloads.Fuzzbugs.all in
  let bin = Workloads.Fuzzbugs.binary c in
  Alcotest.(check int)
    (c.id ^ ": partition declined") 1
    (List.length (Shard.slices bin));
  check_parity (c.id ^ "/whole") Rw.optimized bin [ Shard.whole bin ]

(* A slice of the corpus across every preset x backend combination
   (the full product over 29 benches would dominate the suite's
   runtime without adding coverage). *)
let test_presets_and_backends () =
  let benches =
    List.filter
      (fun (b : Workloads.Spec.bench) ->
        List.mem b.name [ "perlbench"; "gcc"; "calculix" ])
      Workloads.Spec.all
  in
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let bin = Workloads.Spec.binary b in
      List.iter
        (fun (pname, preset) ->
          List.iter
            (fun backend ->
              let opts = { preset with Rw.backend } in
              let name =
                Printf.sprintf "%s/%s/%s" b.name pname (CB.name backend)
              in
              check_parity name opts bin (partitioned name bin))
            CB.all)
        [
          ("unoptimized", Rw.unoptimized);
          ("optimized", Rw.optimized);
          ("hoist", Rw.with_hoist);
        ])
    benches

(* The production preset's allow-list names absolute site addresses;
   sharding must not disturb how they are honoured. *)
let test_allowlist_parity () =
  let b =
    List.find
      (fun (b : Workloads.Spec.bench) -> b.name = "gcc")
      Workloads.Spec.all
  in
  let bin = Workloads.Spec.binary b in
  (* allow-list every other memory-access site of the optimized build *)
  let probe = Rw.rewrite Rw.optimized bin in
  let sites = List.mapi (fun i (a, _) -> (i, a)) probe.Rw.traps in
  let allow = List.filter_map (fun (i, a) -> if i mod 2 = 0 then Some a else None) sites in
  check_parity "gcc/production" (Rw.production ~allowlist:allow) bin
    (partitioned "gcc" bin)

(* Slices are stable: same binary, same partition, same digests. *)
let test_slices_deterministic () =
  let b = List.hd Workloads.Spec.all in
  let bin = Workloads.Spec.binary b in
  let first = partitioned b.name bin and again = Shard.slices bin in
  Alcotest.(check int) "slice count" (List.length first) (List.length again);
  List.iter2
    (fun (x : Shard.slice) (y : Shard.slice) ->
      Alcotest.(check string) "digest" x.sl_digest y.sl_digest;
      Alcotest.(check int) "addr" x.sl_addr y.sl_addr)
    first again

(* Slice byte ranges tile the text exactly. *)
let test_slices_cover_text () =
  List.iter
    (fun (b : Workloads.Spec.bench) ->
      let bin = Workloads.Spec.binary b in
      let sls = partitioned b.name bin in
      let text = Binfmt.Relf.text_exn bin in
      let total =
        List.fold_left (fun s (sl : Shard.slice) -> s + sl.sl_len) 0 sls
      in
      Alcotest.(check int)
        (b.name ^ ": coverage")
        (String.length text.bytes) total;
      let joined =
        String.concat "" (List.map (fun (sl : Shard.slice) -> sl.sl_bytes) sls)
      in
      Alcotest.(check bool)
        (b.name ^ ": bytes tile") true (joined = text.bytes))
    Workloads.Spec.all

(* Shard.rewrite takes its slices on trust from a cache, so a list that
   does not tile the text must be refused before any part is
   rewritten: a gap, an overlap, an edited byte, a wrong digest. *)
let test_rewrite_rejects_bad_tiling () =
  let b = Workloads.Spec.find "mcf" in
  let bin = Workloads.Spec.binary b in
  let text = Binfmt.Relf.text_exn bin in
  let sls = partitioned b.name bin in
  let mk addr bytes =
    { Shard.sl_addr = addr; sl_len = String.length bytes; sl_bytes = bytes;
      sl_digest = Digest.to_hex (Digest.string bytes) }
  in
  let s0, s1, rest =
    match sls with
    | s0 :: s1 :: rest -> (s0, s1, rest)
    | _ -> assert false
  in
  let widened =
    mk s0.sl_addr (String.sub text.bytes (s0.sl_addr - text.addr) (s0.sl_len + 1))
  in
  let edited =
    let by = Bytes.of_string s1.sl_bytes in
    Bytes.set by 0 (Char.chr ((Char.code (Bytes.get by 0) + 1) land 0xff));
    mk s1.sl_addr (Bytes.to_string by)
  in
  let misdigested = { s1 with sl_digest = s0.sl_digest } in
  List.iter
    (fun (name, bad) ->
      let called = ref false in
      let raised =
        match
          Shard.rewrite ~tramp_base:Rw.default_tramp_base bin bad
            (fun ~tramp_base _ sbin ->
              called := true;
              Rw.rewrite ~tramp_base Rw.optimized sbin)
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) (name ^ ": Invalid_argument") true raised;
      Alcotest.(check bool) (name ^ ": no part rewritten") false !called)
    [
      ("gap", s0 :: rest);
      ("overlap", widened :: s1 :: rest);
      ("edited byte", s0 :: edited :: rest);
      ("wrong digest", s0 :: misdigested :: rest);
      ("stops short", [ s0 ]);
      ("empty", []);
    ];
  check_parity "mcf/accepted" Rw.optimized bin sls

(* the spliced [.elimtab] keeps the first part's policy line, so parts
   hardened under different policies (here: reads instrumented in the
   first slice only) must be refused, not spliced under the first
   one's *)
let test_rewrite_rejects_mixed_policies () =
  let b = Workloads.Spec.find "mcf" in
  let bin = Workloads.Spec.binary b in
  let sls = partitioned b.name bin in
  let first = (List.hd sls).Shard.sl_addr in
  match
    Shard.rewrite ~tramp_base:Rw.default_tramp_base bin sls
      (fun ~tramp_base sl sbin ->
        let opts =
          if sl.Shard.sl_addr = first then Rw.optimized
          else { Rw.optimized with instrument_reads = false }
        in
        Rw.rewrite ~tramp_base opts sbin)
  with
  | _ -> Alcotest.fail "parts with different policy lines were spliced"
  | exception Invalid_argument _ -> ()

let tests =
  [
    Alcotest.test_case "slices: deterministic" `Quick test_slices_deterministic;
    Alcotest.test_case "slices: tile the text" `Quick test_slices_cover_text;
    Alcotest.test_case "parity: corpus, optimized" `Quick test_corpus_optimized;
    Alcotest.test_case "parity: presets x backends" `Quick
      test_presets_and_backends;
    Alcotest.test_case "parity: production allow-list" `Quick
      test_allowlist_parity;
    Alcotest.test_case "parity: whole-text slice" `Quick test_whole_slice;
    Alcotest.test_case "rewrite: rejects slices that do not tile" `Quick
      test_rewrite_rejects_bad_tiling;
    Alcotest.test_case "rewrite: rejects parts of mixed policies" `Quick
      test_rewrite_rejects_mixed_policies;
  ]
