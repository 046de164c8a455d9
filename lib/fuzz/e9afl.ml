(** E9AFL-style coverage instrumentation (the paper's §5 cites E9AFL as
    the way to boost profiling coverage on binaries).

    The original binary's basic-block leaders are instrumented with
    {!Rewriter.Generic} probes; at runtime each probe updates the
    AFL-style edge map [hash(prev_block, cur_block)].  Unlike the
    redfat profiling build, this works on binaries with {e no} memory
    accesses in the interesting branches, and it is what a fuzzer
    would actually use for guidance. *)

type t = {
  binary : Binfmt.Relf.t;   (** the coverage-instrumented binary *)
  blocks : int;             (** basic blocks instrumented *)
  map_size : int;
}

let map_size = 1 lsl 16

let instrument (binary : Binfmt.Relf.t) : t =
  let r, blocks = Rewriter.Generic.instrument_blocks binary in
  { binary = r.binary; blocks; map_size }

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
        (* AFL's classic edge hash *)
        let e = (!prev lsr 1) lxor id land (t.map_size - 1) in
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

(** Edge-coverage-guided corpus growth, mirroring {!Fuzzer.fuzz} but
    guided by the AFL map of the {e original} binary rather than the
    redfat profiling build's site coverage. *)
let fuzz ?(seeds = [ [] ]) ?(budget = 300) ?(seed = 1)
    (binary : Binfmt.Relf.t) : Fuzzer.stats =
  let t = instrument binary in
  let r = { Fuzzer.s = max 1 seed } in
  let covered = Hashtbl.create 256 in
  let corpus = ref [] in
  let executions = ref 0 in
  let try_input inputs =
    incr executions;
    let res = run t ~inputs () in
    let fresh = ref false in
    Hashtbl.iter
      (fun e _ ->
        if not (Hashtbl.mem covered e) then begin
          Hashtbl.replace covered e ();
          fresh := true
        end)
      res.edges;
    if !fresh then corpus := inputs :: !corpus
  in
  List.iter try_input seeds;
  for _ = 1 to budget do
    let c = Array.of_list !corpus in
    let parent =
      if Array.length c = 0 then []
      else c.(Fuzzer.rand r (Array.length c))
    in
    try_input (Fuzzer.mutate r parent)
  done;
  {
    Fuzzer.corpus = List.rev !corpus;
    sites_covered = Hashtbl.length covered;
    total_sites = t.blocks;
    executions = !executions;
  }
