(** A Valgrind-Memcheck-style comparator: heavyweight DBI with
    byte-granular addressability (A-bit) shadow memory and a
    redzone-wrapping allocator with a free quarantine.

    This models Memcheck as invoked in the paper's Table 1
    ([--leak-check=no --undef-value-errors=no]): only addressability is
    tracked, so the per-access work is the A-bit lookup.  Like the real
    tool it runs the *original* binary — no static rewriting — paying a
    JIT dispatch cost on every guest instruction, and it *logs* errors
    rather than aborting (testing/debugging use case). *)

let redzone = 16

(** Cost model: Valgrind translates every guest instruction into VEX IR
    and back (factor ~4-6 even for pure compute), and inserts an A-bit
    shadow lookup + branch around every memory access. *)
let dispatch_cost = 8
let access_cost = 18

type error = { addr : int; len : int; write : bool; rip : int }

type t = {
  mem : Vm.Mem.t;
  shadow : (int, Bytes.t) Hashtbl.t;
  (* page -> A bits, 1 = addressable; an absent page is wholly
     unaddressable *)
  mutable brk : int;
  sizes : (int, int) Hashtbl.t;
  mutable quarantine : int list;
  mutable errors : error list;
  seen : (int, unit) Hashtbl.t; (* dedupe by guest rip, like memcheck *)
}

let heap_base = Lowfat.Layout.data_base + 0x1000_0000

let create mem =
  {
    mem;
    shadow = Hashtbl.create 1024;
    brk = heap_base;
    sizes = Hashtbl.create 1024;
    quarantine = [];
    errors = [];
    seen = Hashtbl.create 64;
  }

let page_bits = Vm.Mem.page_bits
let page_size = Vm.Mem.page_size

(* The A bits of every wholly addressable page.  Shared, so it is never
   written: a partial mark copies it first. *)
let full_page = Bytes.make page_size '\001'

(* the page's own A bits for a partial mark, or [None] when the mark
   cannot change them *)
let own_page t no ~accessible =
  match Hashtbl.find_opt t.shadow no with
  | Some p when p != full_page -> Some p
  | Some _ when accessible -> None
  | None when not accessible -> None
  | Some _ ->
    let p = Bytes.copy full_page in
    Hashtbl.replace t.shadow no p;
    Some p
  | None ->
    let p = Bytes.make page_size '\000' in
    Hashtbl.replace t.shadow no p;
    Some p

let mark t ~addr ~len ~(accessible : bool) =
  let v = if accessible then '\001' else '\000' in
  let stop = addr + len in
  let rec go a =
    if a < stop then begin
      let no = a lsr page_bits and off = a land (page_size - 1) in
      let n = min (stop - a) (page_size - off) in
      (if n = page_size then
         if accessible then Hashtbl.replace t.shadow no full_page
         else Hashtbl.remove t.shadow no
       else
         Option.iter (fun p -> Bytes.fill p off n v) (own_page t no ~accessible));
      go (a + n)
    end
  in
  go addr

let accessible t addr =
  match Hashtbl.find_opt t.shadow (addr lsr page_bits) with
  | None -> false
  | Some p -> Bytes.get p (addr land (page_size - 1)) = '\001'

let rec all_set p i stop =
  i >= stop || (Bytes.unsafe_get p i = '\001' && all_set p (i + 1) stop)

(* every byte of [addr, stop) addressable: one shadow lookup per page
   the range touches *)
let rec addressable t addr stop =
  if addr >= stop then true
  else
    let off = addr land (page_size - 1) in
    let n = min (stop - addr) (page_size - off) in
    (match Hashtbl.find_opt t.shadow (addr lsr page_bits) with
     | None -> false
     | Some p -> p == full_page || all_set p off (off + n))
    && addressable t (addr + n) stop

(* --- the replacement allocator -------------------------------------- *)

let malloc t n =
  let n' = (max n 1 + 15) land lnot 15 in
  let a = t.brk + redzone in
  t.brk <- a + n' + redzone;
  Vm.Mem.map t.mem ~addr:(a - redzone) ~len:(n' + 2 * redzone);
  Hashtbl.replace t.sizes a n;
  (* block addressable, surrounding redzones not *)
  mark t ~addr:a ~len:n ~accessible:true;
  a

let free t p =
  if p <> 0 then
    match Hashtbl.find_opt t.sizes p with
    | None -> ()
    | Some n ->
      Hashtbl.remove t.sizes p;
      (* poison and quarantine: the space is never reused, so
         use-after-free keeps being detected (until quarantine pressure,
         which our workloads never reach) *)
      mark t ~addr:p ~len:n ~accessible:false;
      t.quarantine <- p :: t.quarantine

(* --- DBI hooks ------------------------------------------------------ *)

let on_mem t (cpu : Vm.Cpu.t) ~addr ~len ~write =
  cpu.cycles <- cpu.cycles + access_cost;
  if (not (addressable t addr (addr + len))) && not (Hashtbl.mem t.seen cpu.rip)
  then begin
    Hashtbl.add t.seen cpu.rip ();
    t.errors <- { addr; len; write; rip = cpu.rip } :: t.errors
  end

let errors t = List.rev t.errors

(** Put a VM that already holds [modules] (a binary and its shared
    objects) and a mapped stack (see [Redfat.load]) under the simulated
    Memcheck: marks every module's statics and the stack addressable,
    installs hooks.  Returns the runtime to pass to [Cpu.run]. *)
let install (t : t) (cpu : Vm.Cpu.t) (modules : Binfmt.Relf.t list) :
    Vm.Cpu.runtime =
  List.iter
    (fun (b : Binfmt.Relf.t) ->
      List.iter
        (fun (s : Binfmt.Relf.section) ->
          if Binfmt.Relf.loadable s then
            mark t ~addr:s.addr ~len:(String.length s.bytes) ~accessible:true)
        b.sections)
    modules;
  mark t ~addr:Lowfat.Layout.stack_lo ~len:Lowfat.Layout.stack_size
    ~accessible:true;
  cpu.dispatch_cost <- dispatch_cost;
  cpu.on_mem <- Some (fun cpu ~addr ~len ~write -> on_mem t cpu ~addr ~len ~write);
  {
    Vm.Cpu.rt_malloc = (fun _ n -> malloc t n);
    rt_free = (fun _ p -> free t p);
    rt_name = "memcheck";
  }
