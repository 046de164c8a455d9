(** E9AFL-style coverage instrumentation (the paper's §5 cites E9AFL as
    the way to boost profiling coverage on binaries).

    The original binary's basic-block leaders are instrumented with
    {!Rewriter.Generic} probes; at runtime each probe updates the
    AFL-style edge map [hash(prev_block, cur_block)].  Unlike the
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

let instrument (binary : Binfmt.Relf.t) : t =
  let r, blocks = Rewriter.Generic.instrument_blocks binary in
  { binary = r.binary; blocks }

type run = {
  edges : (int, int) Hashtbl.t;  (** edge hash -> hit count *)
  outputs : int list;
  verdict_ok : bool;
}

(** Run the instrumented binary, collecting the edge map. *)
let run (t : t) ?(inputs = []) ?(max_steps = 2_000_000) () : run =
  let cpu = Redfat.prepare ~max_steps t.binary in
  cpu.inputs <- inputs;
  List.iter
    (fun (a, tgt) -> Hashtbl.replace cpu.trap_table a tgt)
    (Rewriter.Rewrite.traps_of_binary t.binary);
  let edges = Hashtbl.create 256 in
  let prev = ref 0 in
  cpu.on_probe <-
    Some
      (fun _ id ->
        let e = edge !prev id in
        Hashtbl.replace edges e (1 + Option.value ~default:0 (Hashtbl.find_opt edges e));
        prev := id;
        3 (* shared-memory counter update *));
  let alloc = Baselines.Sysalloc.create cpu.mem in
  let rt = Baselines.Sysalloc.vm_runtime alloc in
  let ok =
    match Vm.Cpu.run cpu rt ~entry:t.binary.entry with
    | (_ : int) -> true
    | exception _ -> false
  in
  { edges; outputs = Vm.Cpu.outputs cpu; verdict_ok = ok }
