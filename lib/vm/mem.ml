(** Sparse paged memory over a simulated 64-bit virtual address space.

    Pages are 4 KiB.  The mapped address space is a set of disjoint
    page ranges, and a mapped page gets its backing bytes on first
    touch.  Accessing an unmapped page faults, like the MMU would.
    Addresses are OCaml [int]s: the simulated layout tops out at a few
    TiB (see {!Lowfat.Layout}), comfortably inside 62 bits. *)

exception Segfault of int

let page_bits = 12
let page_size = 1 lsl page_bits

module Imap = Map.Make (Int)

(* A direct-mapped TLB over materialized pages: slot [no land
   (tlb_size - 1)] holds page [no] when its tag is [no].  Page lookups
   dominate the interpreter profile; a hit costs two array loads.  Tags
   start at -1, which no page number ([addr lsr page_bits] >= 0)
   matches.  Only materialized pages enter, and [unmap] evicts what it
   removes, so a hit always names a mapped page.

   A second tag array gates writes: [tlb_wtag] of a slot equals its
   page number only when the slot's page is this machine's own.  A
   page shared with a template enters with write tag -1, so the first
   write to it misses and copies the page.  Every fill sets both tags,
   so a write tag left by an earlier page of the slot can never let a
   write through to a shared page that replaced it. *)
let tlb_size = 64 (* a power of two *)

type t = {
  pages : (int, Bytes.t) Hashtbl.t;     (* this machine's own pages *)
  mutable shared : (int, Bytes.t) Hashtbl.t;
  (* a template's pages, read-only: never written, by this machine or
     any other; the first write to one copies it into [pages] *)
  mutable ranges : int Imap.t;
  (* mapped pages, first page -> last page; ranges neither overlap nor
     touch, and every materialized page lies inside one *)
  tlb_tag : int array;
  tlb_wtag : int array;
  tlb_page : Bytes.t array;
}

type template = { tp_pages : (int, Bytes.t) Hashtbl.t; tp_ranges : int Imap.t }

(* the [shared] table of a machine made by [create]: empty, and never
   written (see [unmap]), so every machine may point at it *)
let no_pages : (int, Bytes.t) Hashtbl.t = Hashtbl.create 1

let of_template shared ranges =
  {
    (* small: a fresh machine's tables stay on the minor heap, which
       matters to workloads made of thousands of short runs *)
    pages = Hashtbl.create 16;
    shared;
    ranges;
    tlb_tag = Array.make tlb_size (-1);
    tlb_wtag = Array.make tlb_size (-1);
    tlb_page = Array.make tlb_size Bytes.empty;
  }

let create () = of_template no_pages Imap.empty

let instantiate tp = of_template tp.tp_pages tp.tp_ranges

(* Every page [t] holds moves into the template's table, and [t] itself
   becomes an instance of it: its own table empties and its write tags
   drop, so nothing can write the frozen pages afterwards. *)
let freeze t =
  let pages = Hashtbl.copy t.shared in
  Hashtbl.iter (Hashtbl.replace pages) t.pages;
  Hashtbl.reset t.pages;
  Array.fill t.tlb_wtag 0 tlb_size (-1);
  t.shared <- pages;
  { tp_pages = pages; tp_ranges = t.ranges }

(* the range with the largest first page <= [no], if any *)
let range_at t no = Imap.find_last_opt (fun first -> first <= no) t.ranges

let in_ranges t no =
  match range_at t no with Some (_, last) -> no <= last | None -> false

let fill t slot no p ~own =
  Array.unsafe_set t.tlb_tag slot no;
  Array.unsafe_set t.tlb_wtag slot (if own then no else -1);
  Array.unsafe_set t.tlb_page slot p

(* Demand-zero paging: [map] only records the range; the backing bytes
   appear on first touch.  This keeps huge sparse allocations (the
   legacy heap serves multi-hundred-MB requests) cheap on the host. *)
let fresh_page t addr no =
  if in_ranges t no then begin
    let p = Bytes.make page_size '\000' in
    Hashtbl.add t.pages no p;
    p
  end
  else raise (Segfault addr)

(* a read may use a shared page in place *)
let page_miss t addr no slot =
  match Hashtbl.find_opt t.pages no with
  | Some p -> fill t slot no p ~own:true; p
  | None -> (
    match Hashtbl.find_opt t.shared no with
    | Some p -> fill t slot no p ~own:false; p
    | None ->
      let p = fresh_page t addr no in
      fill t slot no p ~own:true;
      p)

(* a write needs a page of its own: the first write to a shared page
   copies it *)
let wpage_miss t addr no slot =
  let p =
    match Hashtbl.find_opt t.pages no with
    | Some p -> p
    | None -> (
      match Hashtbl.find_opt t.shared no with
      | Some shared ->
        let p = Bytes.copy shared in
        Hashtbl.add t.pages no p;
        p
      | None -> fresh_page t addr no)
  in
  fill t slot no p ~own:true;
  p

let page_of t addr =
  let no = addr lsr page_bits in
  let slot = no land (tlb_size - 1) in
  if Array.unsafe_get t.tlb_tag slot = no then
    Array.unsafe_get t.tlb_page slot
  else page_miss t addr no slot

let wpage_of t addr =
  let no = addr lsr page_bits in
  let slot = no land (tlb_size - 1) in
  if Array.unsafe_get t.tlb_wtag slot = no then
    Array.unsafe_get t.tlb_page slot
  else wpage_miss t addr no slot

let is_mapped t addr =
  let no = addr lsr page_bits in
  Array.unsafe_get t.tlb_tag (no land (tlb_size - 1)) = no
  || Hashtbl.mem t.pages no || in_ranges t no

(** Map (demand-zero) every page covering [addr, addr+len), merging
    with any range it overlaps or touches. *)
let map t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr page_bits and last = (addr + len - 1) lsr page_bits in
    match range_at t first with
    | Some (_, l) when l >= last -> ()
    | prev ->
      let lo = match prev with Some (f, l) when l + 1 >= first -> f | _ -> first in
      let rec absorb hi =
        match Imap.find_first_opt (fun f -> f > lo) t.ranges with
        | Some (f, l) when f <= hi + 1 ->
          t.ranges <- Imap.remove f t.ranges;
          absorb (max hi l)
        | _ -> hi
      in
      let hi = absorb last in
      t.ranges <- Imap.add lo hi t.ranges
  end

(** Remove the mapping, splitting any range that straddles an end;
    later access faults.  Used to model redzone poisoning of
    never-reused areas and by tests. *)
let unmap t ~addr ~len =
  if len > 0 then begin
    let first = addr lsr page_bits and last = (addr + len - 1) lsr page_bits in
    let hides_shared = ref false in
    for no = first to last do
      Hashtbl.remove t.pages no;
      if Hashtbl.mem t.shared no then hides_shared := true;
      let slot = no land (tlb_size - 1) in
      if t.tlb_tag.(slot) = no then begin
        t.tlb_tag.(slot) <- -1;
        t.tlb_wtag.(slot) <- -1
      end
    done;
    (* the shared table is never written: drop the pages from a copy *)
    if !hides_shared then begin
      let shared = Hashtbl.copy t.shared in
      Hashtbl.filter_map_inplace
        (fun no p -> if no >= first && no <= last then None else Some p)
        shared;
      t.shared <- shared
    end;
    (* keep the parts of every overlapping range outside [first, last] *)
    let rec cut () =
      match range_at t last with
      | Some (f, l) when l >= first ->
        t.ranges <- Imap.remove f t.ranges;
        if l > last then t.ranges <- Imap.add (last + 1) l t.ranges;
        if f < first then t.ranges <- Imap.add f (first - 1) t.ranges
        else cut ()
      | _ -> ()
    in
    cut ()
  end

let read_u8 t addr =
  let p = page_of t addr in
  Char.code (Bytes.unsafe_get p (addr land (page_size - 1)))

let write_u8 t addr v =
  let p = wpage_of t addr in
  Bytes.unsafe_set p (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

(* The byte path, for accesses that straddle a page boundary: explicit
   lets fix the evaluation (and hence faulting) order at the first
   byte, like hardware would, so the fault names the first unmapped
   byte and a write stores every byte before it. *)
let read_bytes t ~addr ~len =
  match len with
  | 2 ->
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    b0 lor (b1 lsl 8)
  | 4 ->
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)
  | 8 ->
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (addr + 1) in
    let b2 = read_u8 t (addr + 2) in
    let b3 = read_u8 t (addr + 3) in
    let b4 = read_u8 t (addr + 4) in
    let b5 = read_u8 t (addr + 5) in
    let b6 = read_u8 t (addr + 6) in
    let b7 = read_u8 t (addr + 7) in
    b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24) lor (b4 lsl 32)
    lor (b5 lsl 40) lor (b6 lsl 48) lor (b7 lsl 56)
  | _ -> invalid_arg "Mem.read"

let write_bytes t ~addr ~len v =
  match len with
  | 2 ->
    write_u8 t addr v;
    write_u8 t (addr + 1) (v lsr 8)
  | 4 ->
    write_u8 t addr v;
    write_u8 t (addr + 1) (v lsr 8);
    write_u8 t (addr + 2) (v lsr 16);
    write_u8 t (addr + 3) (v lsr 24)
  | 8 ->
    write_u8 t addr v;
    write_u8 t (addr + 1) (v lsr 8);
    write_u8 t (addr + 2) (v lsr 16);
    write_u8 t (addr + 3) (v lsr 24);
    write_u8 t (addr + 4) (v lsr 32);
    write_u8 t (addr + 5) (v lsr 40);
    write_u8 t (addr + 6) (v lsr 48);
    write_u8 t (addr + 7) (v lsr 56)
  | _ -> invalid_arg "Mem.write"

(** Little-endian read of [len] in {1,2,4,8} bytes, zero-extended.
    An 8-byte read reconstructs the stored 63-bit int. *)
(* An access inside one page is one page lookup and one word load; it
   must equal the byte path bit for bit: a 4-byte read zero-extends
   (hence the mask), and an 8-byte read drops bit 63 (Int64.to_int). *)
let read t ~addr ~len =
  let off = addr land (page_size - 1) in
  if off + len > page_size then read_bytes t ~addr ~len
  else
    match len with
    | 1 -> Char.code (Bytes.unsafe_get (page_of t addr) off)
    | 2 -> Bytes.get_uint16_le (page_of t addr) off
    | 4 ->
      Int32.to_int (Bytes.get_int32_le (page_of t addr) off) land 0xffff_ffff
    | 8 -> Int64.to_int (Bytes.get_int64_le (page_of t addr) off)
    | _ -> invalid_arg "Mem.read"

(* The byte path stores bits 56-62 in byte 7 and leaves its top bit 0,
   while Int64.of_int sign-extends bit 62 into bit 63: mask it off. *)
let write t ~addr ~len v =
  let off = addr land (page_size - 1) in
  if off + len > page_size then write_bytes t ~addr ~len v
  else
    match len with
    | 1 -> Bytes.unsafe_set (wpage_of t addr) off (Char.unsafe_chr (v land 0xff))
    | 2 -> Bytes.set_uint16_le (wpage_of t addr) off v
    | 4 -> Bytes.set_int32_le (wpage_of t addr) off (Int32.of_int v)
    | 8 ->
      Bytes.set_int64_le (wpage_of t addr) off
        (Int64.logand (Int64.of_int v) Int64.max_int)
    | _ -> invalid_arg "Mem.write"

let write_string t ~addr s =
  let len = String.length s in
  map t ~addr ~len;
  let rec fill k =
    if k < len then begin
      let off = (addr + k) land (page_size - 1) in
      let n = min (len - k) (page_size - off) in
      Bytes.blit_string s k (wpage_of t (addr + k)) off n;
      fill (k + n)
    end
  in
  fill 0

(** Read up to [len] bytes starting at [addr], stopping early at the
    first unmapped page.  Used by the instruction fetcher; copies a
    page slice at a time. *)
let read_string t ~addr ~len =
  let b = Bytes.create (max len 0) in
  let rec fill k =
    if k >= len then k
    else
      match page_of t (addr + k) with
      | p ->
        let off = (addr + k) land (page_size - 1) in
        let n = min (len - k) (page_size - off) in
        Bytes.blit p off b k n;
        fill (k + n)
      | exception Segfault _ -> k
  in
  let n = fill 0 in
  if n = len then Bytes.unsafe_to_string b else Bytes.sub_string b 0 n
