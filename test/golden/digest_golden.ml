(** Byte pins of every binary the patch layer writes: one line per
    build with the MD5 of its serialized RELF image.  Covers the
    hardening client (every SPEC stand-in under each Table-1 option
    set, [optimized] under every backend, the Chrome-scale binary and
    the trap-patch fixture) and the probe client (E9AFL block builds
    and an every-instruction probe build).  Any byte a rewrite emits
    differently changes a line.

    Each hardening line is followed by a [<name> stats <md5>] line
    pinning the rewrite's numbers: the MD5 of its {!Rw.pp_stats}
    rendering and its [checks_by_kind] breakdown — and by a
    [<name> verify <md5>] line pinning the soundness linter's verdict on
    it: the MD5 of its {!Dataflow.Verify.pp_report} rendering and every
    failure's address and reason, or of the [Error] text.  A few builds
    under a fixed site-keyed fault hook pin the bytes of the degrade and
    skip paths (their stats are left unpinned). *)

module Rw = Redfat.Rewrite
module CB = Backend.Check_backend

open Minic.Ast
open Minic.Build

(* a program with branch-only behaviour differences: no heap access in
   the gated branches *)
let branchy =
  Minic.Ast.program
    [
      func ~name:"main"
        [
          let_ "x" Input;
          let_ "s" (i 1);
          if_ (v "x" >: i 10) [ assign "s" (v "s" *: i 3) ] [];
          if_ (v "x" >: i 100) [ assign "s" (v "s" *: i 5) ] [];
          if_
            (v "x" &: i 1 =: i 1)
            [ assign "s" (v "s" *: i 7) ]
            [ assign "s" (v "s" +: i 1) ];
          print_ (v "s");
          return_ (i 0);
        ];
    ]

(* [binary] with a [Probe i] trampoline patched at instruction [i]
   through the patch layer directly: at every instruction when [evict]
   is false (each is a patch start, so none can be evicted), else at
   every instruction no earlier patch displaced.  Returns the session
   (tactic counts, traps) and the patched binary. *)
let probe_build ~evict (binary : Binfmt.Relf.t) =
  let module Patch = Rewriter.Patch in
  let text = Binfmt.Relf.text_exn binary in
  let cfg = Dataflow.Graph.recover ~entry:text.addr text.bytes in
  let p =
    Patch.create ~tramp_base:Lowfat.Layout.trampoline_base text
      (Dataflow.Graph.stream cfg)
  in
  let next = ref 0 in
  for i = 0 to Dataflow.Graph.num_instrs cfg - 1 do
      if i >= !next then begin
        let tactic, displaced =
          Patch.decide cfg ~is_start:(fun _ -> not evict) i
        in
        let tramp =
          Patch.trampoline p ~payload:[ X64.Isa.Probe i ] ~displaced
        in
        Patch.patch p tactic ~displaced ~tramp;
        next := i + List.length displaced
      end
  done;
  (p, Patch.finish p ~name:".e9tool" binary)

let digest name (b : Binfmt.Relf.t) =
  Printf.sprintf "%s %s" name
    (Digest.to_hex (Digest.string (Binfmt.Relf.serialize b)))

let stats name (s : Rw.stats) =
  let text =
    Format.asprintf "%a|%s" Rw.pp_stats s
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.checks_by_kind))
  in
  Printf.sprintf "%s stats %s" name (Digest.to_hex (Digest.string text))

let verify name (b : Binfmt.Relf.t) =
  let text =
    match Rw.verify b with
    | Error e -> "error|" ^ e
    | Ok r ->
      Format.asprintf "%a|%s" Dataflow.Verify.pp_report r
        (String.concat ","
           (List.map
              (fun (f : Dataflow.Verify.failure) ->
                Printf.sprintf "%#x:%s" f.f_addr f.f_reason)
              r.failures))
  in
  Printf.sprintf "%s verify %s" name (Digest.to_hex (Digest.string text))

(* the byte, stats and verify lines of one hardening build *)
let hardened name (r : Rw.t) =
  [ digest name r.binary; stats name r.stats; verify name r.binary ]

(* a fixed site-keyed fault: two thirds of the plans fault on their
   first attempt, and half of those again on the Redzone retry, so a
   build exercises both the degrade and the skip path *)
let fault_hook ~stage ~site =
  let h = Hashtbl.hash site mod 3 in
  if h = 0 || (h = 1 && stage = "emit") then failwith "injected"

let option_sets =
  [
    ("unoptimized", Rw.unoptimized);
    ("with_elim", Rw.with_elim);
    ("with_batch", Rw.with_batch);
    ("optimized", Rw.optimized);
    ("with_hoist", Rw.with_hoist);
    ("profiling_build", Rw.profiling_build);
  ]

let spec (b : Workloads.Spec.bench) =
  let bin = Workloads.Spec.binary b in
  let target = "spec:" ^ b.name in
  List.concat_map
    (fun (name, opts) -> hardened (target ^ " " ^ name) (Rw.rewrite opts bin))
    option_sets
  @ List.concat_map
      (fun backend ->
        hardened
          (target ^ " optimized/" ^ CB.name backend)
          (Rw.rewrite { Rw.optimized with backend } bin))
      CB.all
  @ [ digest (target ^ " e9afl") (Fuzz.E9afl.instrument bin).binary ]

let faulted name =
  let bin = Workloads.Spec.binary (Workloads.Spec.find name) in
  List.map
    (fun (oname, opts) ->
      digest
        (Printf.sprintf "spec:%s %s/faulted" name oname)
        (Rw.rewrite ~fault_hook opts bin).binary)
    [ ("optimized", Rw.optimized); ("with_hoist", Rw.with_hoist) ]

let lines () =
  let chrome = Workloads.Chrome.binary ~copies:1 () in
  List.concat_map spec Workloads.Spec.all
  @ hardened "chrome:1 optimized/noreads"
      (Rw.rewrite { Rw.optimized with instrument_reads = false } chrome)
  @ hardened "asm:trap optimized"
      (Rw.rewrite Rw.optimized (Vm_golden.trap_binary ()))
  (* reads on: the batch path whose linter verdict still lists
     unaccounted operands; its report, failures included, is pinned *)
  @ hardened "chrome:1 optimized" (Rw.rewrite Rw.optimized chrome)
  @ [
      digest "branchy probe-every"
        (snd (probe_build ~evict:false (Minic.Codegen.compile branchy)));
    ]
  @ List.concat_map faulted [ "perlbench"; "mcf"; "omnetpp" ]
