(** E9AFL-style coverage instrumentation (the paper's §5 cites E9AFL as
    the way to boost profiling coverage on binaries).

    E9AFL is E9Patch's other client: it selects the original binary's
    basic-block leaders itself and patches each through the same
    {!Rewriter.Patch} layer as the hardening rewriter, with a [Probe]
    payload; at runtime each probe updates the AFL-style edge map
    [hash(prev_block, cur_block)].  Unlike the
    redfat profiling build, this works on binaries with {e no} memory
    accesses in the interesting branches, and it is what a fuzzer
    would actually use for guidance: {!Campaign.run_exec} on the
    instrumented binary is the edge-guided fuzzer. *)

type t = {
  binary : Binfmt.Relf.t;   (** the coverage-instrumented binary *)
  blocks : int;             (** basic blocks instrumented *)
}

let map_size = 1 lsl 16

(** AFL's classic edge hash: the transition [prev -> cur] as a slot of
    the [map_size] coverage map.  {!Campaign.execute} hashes check
    sites and probe ids with it too. *)
let edge prev cur = ((prev lsr 1) lxor cur) land (map_size - 1)

(** Probe every recovered basic-block leader.  Probe ids are dense,
    numbered from the last block down to 0 at the first.  The
    trampolines go to an [.e9tool] section: backend detection and
    [Rewrite.is_hardened] key on [.redfat], which this is not. *)
let instrument (binary : Binfmt.Relf.t) : t =
  let module Graph = Dataflow.Graph in
  let module Patch = Rewriter.Patch in
  let text = Binfmt.Relf.text_exn binary in
  let g = Graph.recover ~entry:text.addr text.bytes in
  let leaders =
    List.filter
      (fun i -> Graph.is_leader g (Graph.addr g i))
      (List.init (Graph.num_instrs g) Fun.id)
  in
  let blocks = List.length leaders in
  let p =
    Patch.create ~tramp_base:Lowfat.Layout.trampoline_base text
      (Graph.stream g)
  in
  List.iteri
    (fun rank i ->
      (* every patch start is a leader, which is never evicted anyway *)
      let tactic, displaced = Patch.decide g ~is_start:(fun _ -> false) i in
      let tramp =
        Patch.trampoline p
          ~payload:[ X64.Isa.Probe (blocks - 1 - rank) ]
          ~displaced
      in
      Patch.patch p tactic ~displaced ~tramp)
    leaders;
  { binary = Patch.finish p ~name:".e9tool" binary; blocks }

type run = {
  edges : (int, int) Hashtbl.t;  (** edge hash -> hit count *)
  outputs : int list;
  verdict_ok : bool;
}

(** Run the instrumented binary, collecting the edge map. *)
let run (t : t) ?(inputs = []) ?(max_steps = 2_000_000) () : run =
  let cpu, (), vmrt =
    Redfat.load ~inputs ~max_steps (Redfat.image t.binary) Redfat.Baseline
  in
  let edges = Hashtbl.create 256 in
  let prev = ref 0 in
  cpu.on_probe <-
    Some
      (fun _ id ->
        let e = edge !prev id in
        Hashtbl.replace edges e (1 + Option.value ~default:0 (Hashtbl.find_opt edges e));
        prev := id;
        3 (* shared-memory counter update *));
  let r, verdict = Redfat.exec cpu vmrt ~entry:t.binary.entry in
  {
    edges;
    outputs = r.outputs;
    verdict_ok = (match verdict with Redfat.Finished _ -> true | _ -> false);
  }
