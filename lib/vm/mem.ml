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

type t = {
  pages : (int, Bytes.t) Hashtbl.t;     (* materialized pages *)
  mutable ranges : int Imap.t;
  (* mapped pages, first page -> last page; ranges neither overlap nor
     touch, and every materialized page lies inside one *)
  (* one-entry cache: page lookups dominate the interpreter profile *)
  mutable last_page_no : int;
  mutable last_page : Bytes.t;
}

let none = Bytes.create 0

let create () =
  {
    pages = Hashtbl.create 4096;
    ranges = Imap.empty;
    last_page_no = -1;
    last_page = none;
  }

(* the range with the largest first page <= [no], if any *)
let range_at t no = Imap.find_last_opt (fun first -> first <= no) t.ranges

let in_ranges t no =
  match range_at t no with Some (_, last) -> no <= last | None -> false

(* Demand-zero paging: [map] only records the range; the backing bytes
   appear on first touch.  This keeps huge sparse allocations (the
   legacy heap serves multi-hundred-MB requests) cheap on the host. *)
let page_of t addr =
  let no = addr lsr page_bits in
  if no = t.last_page_no then t.last_page
  else
    match Hashtbl.find_opt t.pages no with
    | Some p ->
      t.last_page_no <- no;
      t.last_page <- p;
      p
    | None ->
      if in_ranges t no then begin
        let p = Bytes.make page_size '\000' in
        Hashtbl.add t.pages no p;
        t.last_page_no <- no;
        t.last_page <- p;
        p
      end
      else raise (Segfault addr)

let is_mapped t addr =
  let no = addr lsr page_bits in
  Hashtbl.mem t.pages no || in_ranges t no

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
    for no = first to last do
      Hashtbl.remove t.pages no;
      if t.last_page_no = no then t.last_page_no <- -1
    done;
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
  let p = page_of t addr in
  Bytes.unsafe_set p (addr land (page_size - 1)) (Char.unsafe_chr (v land 0xff))

(** Little-endian read of [len] in {1,2,4,8} bytes, zero-extended.
    An 8-byte read reconstructs the stored 63-bit int. *)
(* explicit lets fix the evaluation (and hence faulting) order at the
   first byte of the access, like hardware would *)
let read t ~addr ~len =
  match len with
  | 1 -> read_u8 t addr
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

let write t ~addr ~len v =
  match len with
  | 1 -> write_u8 t addr v
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

let write_string t ~addr s =
  map t ~addr ~len:(String.length s);
  String.iteri (fun k c -> write_u8 t (addr + k) (Char.code c)) s

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
