(** The low-fat memory allocator ([lowfat_malloc] / [lowfat_free]).

    Each size class owns a subheap inside its 32 GiB region.  Fresh
    objects are carved by a bump pointer starting at the first
    size-aligned address of the region; freed objects go to a per-class
    free list (LIFO reuse).  Allocations larger than the largest class
    fall back to a legacy bump heap in a non-fat region — pointers from
    there are invisible to low-fat checking, exactly like LowFat's
    fallback to malloc. *)

exception Invalid_free of int
exception Double_free of int
exception Out_of_memory of int

type stats = {
  mutable allocs : int;
  mutable frees : int;
  mutable legacy_allocs : int;
  mutable bytes_requested : int;
  mutable bytes_reserved : int;  (** including class-rounding padding *)
}

type t = {
  mem : Vm.Mem.t;
  bump : int array;                   (* next fresh address, per class *)
  freelist : int list array;
  live : (int, int) Hashtbl.t;        (* base -> class idx (0 = legacy) *)
  mutable legacy_bump : int;
  legacy_size : (int, int) Hashtbl.t;
  stats : stats;
  mutable rng : int;                  (* 0 = randomization off *)
}

(* xorshift step; never returns 0 for a non-zero state *)
let next_rand s =
  let s = s lxor (s lsl 13) land max_int in
  let s = s lxor (s lsr 7) in
  s lxor (s lsl 17) land max_int

(** [create ?random mem]: the allocator.  [random] (paper section 8:
    "basic heap randomization") seeds deterministic randomization of
    subheap start offsets and free-list reuse order, making adjacent-
    object attacks less predictable without changing the base/size
    machinery. *)
let create ?random (mem : Vm.Mem.t) : t =
  let rng = ref (match random with Some s -> max 1 (s land max_int) | None -> 0) in
  let bump =
    Array.init (Layout.num_classes + 1) (fun i ->
        if i = 0 then 0
        else begin
          let start = Layout.region_start i in
          let sz = Layout.sizes.(i - 1) in
          (* first size-aligned slot of the region, plus a random
             slot-granular offset when randomization is on *)
          let first = (start + sz - 1) / sz * sz in
          if !rng = 0 then first
          else begin
            rng := next_rand !rng;
            first + (!rng mod 4096) * sz
          end
        end)
  in
  {
    mem;
    bump;
    freelist = Array.make (Layout.num_classes + 1) [];
    (* small: never iterated, so its initial size changes no output,
       and a 1024-bucket table would be a major-heap block per run *)
    live = Hashtbl.create 16;
    legacy_bump = Layout.legacy_heap_base + 4096;
    legacy_size = Hashtbl.create 16;
    stats =
      { allocs = 0; frees = 0; legacy_allocs = 0; bytes_requested = 0;
        bytes_reserved = 0 };
    rng = (match random with Some s -> max 1 (s land max_int) | None -> 0);
  }

let alloc_legacy t n =
  let addr = t.legacy_bump in
  t.legacy_bump <- addr + ((n + 15) land lnot 15);
  Vm.Mem.map t.mem ~addr ~len:n;
  Hashtbl.replace t.legacy_size addr n;
  Hashtbl.replace t.live addr 0;
  t.stats.legacy_allocs <- t.stats.legacy_allocs + 1;
  t.stats.bytes_reserved <- t.stats.bytes_reserved + n;
  addr

(** Allocate [n] bytes; the result is size-aligned inside the class's
    region (or a legacy non-fat pointer for very large [n]). *)
let malloc t n =
  if n <= 0 then invalid_arg "Alloc.malloc";
  t.stats.allocs <- t.stats.allocs + 1;
  t.stats.bytes_requested <- t.stats.bytes_requested + n;
  match Layout.class_of_size n with
  | None -> alloc_legacy t n
  | Some (cls, csize) ->
    let addr =
      match t.freelist.(cls) with
      | a :: rest when t.rng = 0 ->
        t.freelist.(cls) <- rest;
        a
      | _ :: _ ->
        (* randomized reuse: pick a random free slot (DieHarder-style) *)
        t.rng <- next_rand t.rng;
        let l = t.freelist.(cls) in
        let k = t.rng mod List.length l in
        let a = List.nth l k in
        t.freelist.(cls) <- List.filteri (fun j _ -> j <> k) l;
        a
      | [] ->
        let a = t.bump.(cls) in
        if a + csize > Layout.region_end cls then raise (Out_of_memory n);
        t.bump.(cls) <- a + csize;
        Vm.Mem.map t.mem ~addr:a ~len:csize;
        a
    in
    Hashtbl.replace t.live addr cls;
    t.stats.bytes_reserved <- t.stats.bytes_reserved + csize;
    addr

let free t ptr =
  t.stats.frees <- t.stats.frees + 1;
  match Hashtbl.find_opt t.live ptr with
  | Some 0 ->
    Hashtbl.remove t.live ptr;
    Hashtbl.remove t.legacy_size ptr
  | Some cls ->
    Hashtbl.remove t.live ptr;
    t.freelist.(cls) <- ptr :: t.freelist.(cls)
  | None ->
    if Layout.is_fat ptr && Layout.base ptr = ptr then raise (Double_free ptr)
    else raise (Invalid_free ptr)

let is_live t ptr = Hashtbl.mem t.live ptr

(** Reserved (class-rounded) size of a live object, if [ptr] is its base. *)
let reserved_size t ptr =
  match Hashtbl.find_opt t.live ptr with
  | Some 0 -> Hashtbl.find_opt t.legacy_size ptr
  | Some cls -> Some Layout.sizes.(cls - 1)
  | None -> None

let live_count t = Hashtbl.length t.live
