type stats = {
  mutable hits : int;
  mutable hits_mem : int;
  mutable hits_disk : int;
  mutable misses : int;
  mutable stores : int;
  mutable stale : int;
  mutable corrupt : int;
  mutable retries : int;
}

(* --- the pack format ---------------------------------------------------

   A pack is one append-only file: [pack_magic], then records.  A record
   is a 23-byte header — a state byte ('L' live, 'D' dead), the key length
   (u16 LE), the blob length (u32 LE), the blob's MD5 — then the key, then
   the blob.  A record is appended by one [write] of the whole buffer and
   never rewritten, except that a reader which finds its blob damaged
   flips the state byte to 'D', so no later reader serves or recounts it.

   History of the on-disk format.  ART2..ART6 were one file per artifact
   whose magic changed with the artifact types (per-check-kind stats,
   the fault layer, check backends, loop hoisting, function-granular
   manifests); ART7 put the blob's MD5 after the magic.  PACK1 keeps
   ART7's per-blob MD5 but appends every artifact an engine stores to
   one file, because creating a file per artifact was most of a cached
   harden's cost.  A bump of the blob types must bump [pack_magic]. *)
let pack_magic = "REDFAT-PACK1\n"
let magic_len = String.length pack_magic
let hdr_len = 23
let max_key = 255
let live = 'L'
let dead = 'D'

(* more packs than this in a directory are merged when it is opened *)
let max_packs = 16

type pack = {
  p_path : string;
  mutable p_size : int;  (* bytes of whole records indexed so far *)
  mutable gone : bool;  (* not a pack: deleted when first seen *)
}

(* where a record sits: the whole record, header included *)
type loc = { pack : pack; off : int; len : int }

type t = {
  lock : Mutex.t;  (* [mem] and [st] *)
  mem : (string, string) Hashtbl.t; (* key -> marshal blob *)
  dir : string option;
  on : bool;
  st : stats;
  notify : (string -> unit) option;
  obs : Obs.t option;
  dlock : Mutex.t;  (* the disk state below; never taken under [lock] *)
  index : (string, loc) Hashtbl.t;
  packs : (string, pack) Hashtbl.t;  (* other writers' packs, by name *)
  mutable own : (pack * Unix.file_descr) option;  (* this cache's pack *)
}

let notify t ev = match t.notify with Some f -> f ev | None -> ()

let count t ev =
  Mutex.lock t.lock;
  (match ev with
  | "stale" -> t.st.stale <- t.st.stale + 1
  | "corrupt" -> t.st.corrupt <- t.st.corrupt + 1
  | "store" -> t.st.stores <- t.st.stores + 1
  | "store-failed" -> t.st.retries <- t.st.retries + 1
  | "miss" -> t.st.misses <- t.st.misses + 1
  | "hit.mem" ->
    t.st.hits <- t.st.hits + 1;
    t.st.hits_mem <- t.st.hits_mem + 1
  | "hit.disk" ->
    t.st.hits <- t.st.hits + 1;
    t.st.hits_disk <- t.st.hits_disk + 1
  | _ -> ());
  Mutex.unlock t.lock;
  notify t ev

let span t name f =
  match t.obs with Some o -> Obs.span o ~cat:"engine" name f | None -> f ()

let locked t f =
  Mutex.lock t.dlock;
  match f () with
  | v -> Mutex.unlock t.dlock; v
  | exception e -> Mutex.unlock t.dlock; raise e

(* stop appending to this cache's pack (under [dlock]) *)
let drop_own t =
  Option.iter
    (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.own;
  t.own <- None

let enabled t = t.on
let stats t = t.st

let key ~kind parts =
  kind ^ "-" ^ Digest.to_hex (Digest.string (String.concat "\x00" (kind :: parts)))

(* --- record IO ---------------------------------------------------------- *)

let encode key blob =
  let kl = String.length key and bl = String.length blob in
  let b = Bytes.create (hdr_len + kl + bl) in
  Bytes.set b 0 live;
  Bytes.set_uint16_le b 1 kl;
  Bytes.set_int32_le b 3 (Int32.of_int bl);
  Bytes.blit_string (Digest.string blob) 0 b 7 16;
  Bytes.blit_string key 0 b hdr_len kl;
  Bytes.blit_string blob 0 b (hdr_len + kl) bl;
  b

type header = { state : char; key : string; blob_len : int; md5 : string }

(* [Garbage] for bytes no writer produces; [Short] when [b] ends before
   the header does, as a record still being written can *)
type parsed = Header of header | Short | Garbage

let decode_header b =
  if Bytes.length b < hdr_len then Short
  else
    let state = Bytes.get b 0 and kl = Bytes.get_uint16_le b 1 in
    if (state <> live && state <> dead) || kl = 0 || kl > max_key then Garbage
    else if Bytes.length b < hdr_len + kl then Short
    else
      let key = Bytes.sub_string b hdr_len kl in
      if String.exists (fun c -> c <= ' ' || c > '~') key then Garbage
      else
        Header
          {
            state;
            key;
            blob_len = Int32.to_int (Bytes.get_int32_le b 3) land 0xffff_ffff;
            md5 = Bytes.sub_string b 7 16;
          }

let record_len h = hdr_len + String.length h.key + h.blob_len

(* read up to [len] bytes at [off]; fewer at end of file *)
let pread fd off len =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec go n =
    if n = len then n
    else match Unix.read fd b n (len - n) with 0 -> n | k -> go (n + k)
  in
  let n = go 0 in
  if n = len then b else Bytes.sub b 0 n

let with_fd path flags f =
  let fd = Unix.openfile path (Unix.O_CLOEXEC :: flags) 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

(* flip a damaged record's state byte so no later reader serves it *)
let mark_dead loc =
  try
    with_fd loc.pack.p_path [ Unix.O_WRONLY ] (fun fd ->
        ignore (Unix.lseek fd loc.off Unix.SEEK_SET);
        ignore (Unix.write_substring fd (String.make 1 dead) 0 1))
  with Unix.Unix_error _ -> ()

type loaded = Blob of string | Absent | Corrupt

(* the record at [loc], which the index says holds [key]: served only
   if it is still live, still holds [key] and its blob matches its MD5.
   A record that no longer looks like the one indexed (its pack gone
   or replaced) is [Absent]; only a blob that fails its MD5 is
   [Corrupt]. *)
let read_record loc key : loaded =
  match
    with_fd loc.pack.p_path [ Unix.O_RDONLY ] (fun fd ->
        pread fd loc.off loc.len)
  with
  | exception Unix.Unix_error _ -> Absent
  | b -> (
    match decode_header b with
    | Header h
      when h.state = live && h.key = key && record_len h = loc.len
           && Bytes.length b = loc.len ->
      let blob =
        Bytes.sub_string b (hdr_len + String.length key) h.blob_len
      in
      if Digest.string blob = h.md5 then Blob blob else Corrupt
    | _ -> Absent)

let is_pack name = Filename.check_suffix name ".pack"

let remove path = try Sys.remove path with Sys_error _ -> ()

(* what a file whose first bytes are not [pack_magic] counts as *)
let foreign m =
  if String.starts_with ~prefix:"REDFAT-PACK" m then "stale" else "corrupt"

(* Index the whole records of a pack past what is already indexed,
   reading headers only.  A record that runs past the end of the file
   is being written (or was cut short): it is indexed once it is
   whole.  A file that is not a current pack is deleted; a garbage
   header ends the readable part of the pack, so the file is cut back
   to it.  Returns the damage seen, as event names. *)
let scan t p size =
  let evs = ref [] in
  (try
     with_fd p.p_path [ Unix.O_RDONLY ] @@ fun fd ->
     if p.p_size = 0 && size >= magic_len then begin
       let m = Bytes.to_string (pread fd 0 magic_len) in
       if m = pack_magic then p.p_size <- magic_len
       else begin
         remove p.p_path;
         evs := [ foreign m ];
         p.gone <- true
       end
     end;
     let continue = ref (p.p_size > 0 && not p.gone) in
     while !continue && p.p_size + hdr_len <= size do
       match decode_header (pread fd p.p_size (hdr_len + max_key)) with
       | Garbage ->
         (try Unix.truncate p.p_path p.p_size with Unix.Unix_error _ -> ());
         evs := "corrupt" :: !evs;
         continue := false
       | Short -> continue := false
       | Header h when p.p_size + record_len h > size -> continue := false
       | Header h ->
         let len = record_len h in
         if h.state = live && not (Hashtbl.mem t.index h.key) then
           Hashtbl.replace t.index h.key { pack = p; off = p.p_size; len };
         p.p_size <- p.p_size + len
     done
   with Unix.Unix_error _ -> ());
  !evs

(* pick up new or grown packs of other writers (under [dlock]) *)
let refresh t dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let own = Option.map (fun (p, _) -> p.p_path) t.own in
    Array.fold_left
      (fun evs name ->
        let path = Filename.concat dir name in
        if (not (is_pack name)) || Some path = own then evs
        else
          let p =
            match Hashtbl.find_opt t.packs name with
            | Some p -> p
            | None ->
              let p = { p_path = path; p_size = 0; gone = false } in
              Hashtbl.replace t.packs name p;
              p
          in
          match Unix.stat path with
          | { Unix.st_size; _ } when st_size > p.p_size && not p.gone ->
            scan t p st_size @ evs
          | { Unix.st_size; _ } when st_size < p.p_size ->
            (* cut back by a reader that found a garbage header: what
               its writer appends next starts where the cut ended *)
            p.p_size <- 0;
            scan t p st_size @ evs
          | _ -> evs
          | exception Unix.Unix_error _ -> evs)
      [] names

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let pack_seq = Atomic.make 0

(* this cache's pack, created on first use and again whenever it has
   been unlinked under us (its directory removed, or the pack merged
   into another writer's) — appending to an unlinked file would lose
   every later record *)
let own_pack t dir =
  match t.own with
  | Some (p, fd) when (Unix.fstat fd).Unix.st_nlink > 0 -> (p, fd)
  | _ ->
    drop_own t;
    ensure_dir dir;
    let rec create () =
      let path =
        Filename.concat dir
          (Printf.sprintf "%d-%d.pack" (Unix.getpid ())
             (Atomic.fetch_and_add pack_seq 1))
      in
      match
        Unix.openfile path
          Unix.[ O_WRONLY; O_CREAT; O_EXCL; O_APPEND; O_CLOEXEC ]
          0o644
      with
      | fd -> (path, fd)
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> create ()
    in
    let path, fd = create () in
    let p = { p_path = path; p_size = magic_len; gone = false } in
    (match Unix.write_substring fd pack_magic 0 magic_len with
    | n when n = magic_len -> ()
    | _ | (exception Unix.Unix_error _) ->
      Unix.close fd;
      remove path;
      raise (Sys_error ("cannot write " ^ path)));
    t.own <- Some (p, fd);
    (p, fd)

(* append encoded records (one [write]) and index them (under [dlock]).
   A failed write abandons the pack, as it may end in a torn record,
   and retries once in a fresh one. *)
let append t dir (records : (string * Bytes.t) list) =
  let buf = Bytes.concat Bytes.empty (List.map snd records) in
  let attempt () =
    let p, fd = own_pack t dir in
    (* [Unix.write] writes it all or raises *)
    ignore (Unix.write fd buf 0 (Bytes.length buf));
    List.iter
      (fun (key, r) ->
        let len = Bytes.length r in
        Hashtbl.replace t.index key { pack = p; off = p.p_size; len };
        p.p_size <- p.p_size + len)
      records
  in
  match attempt () with
  | () -> true
  | exception (Unix.Unix_error _ | Sys_error _) -> (
    drop_own t;
    match attempt () with
    | () -> true
    | exception (Unix.Unix_error _ | Sys_error _) ->
      drop_own t;
      false)

(* Merge other writers' packs into this cache's own: every live record
   whose blob passes its MD5 is copied once per key, then the source is
   deleted.  A record its writer appends between the read and the
   delete is lost, which is a later miss, never a wrong answer. *)
let merge t dir names =
  List.concat_map
    (fun name ->
      let path = Filename.concat dir name in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> []
      | s when String.length s < magic_len -> []  (* still being created *)
      | s when not (String.starts_with ~prefix:pack_magic s) ->
        remove path;
        [ foreign s ]
      | s ->
        let n = String.length s in
        let b = Bytes.unsafe_of_string s in
        let seen = Hashtbl.create 64 in
        let rec go off acc evs =
          let hdr = Bytes.sub b off (min (hdr_len + max_key) (n - off)) in
          match decode_header hdr with
          | Short -> (acc, evs)
          | Garbage -> (acc, "corrupt" :: evs)
          | Header h when off + record_len h > n -> (acc, evs)
          | Header h ->
            let next = off + record_len h in
            let blob_off = off + hdr_len + String.length h.key in
            if h.state = dead || Hashtbl.mem seen h.key
               || Hashtbl.mem t.index h.key
            then go next acc evs
            else if Digest.substring s blob_off h.blob_len <> h.md5 then
              go next acc ("corrupt" :: evs)
            else begin
              Hashtbl.replace seen h.key ();
              go next ((h.key, Bytes.sub b off (record_len h)) :: acc) evs
            end
        in
        let records, evs = go magic_len [] [] in
        if records = [] || append t dir (List.rev records) then remove path;
        evs)
    names

(* opening a directory: old one-file-per-artifact files are removed
   (each one stale), and a directory holding too many packs is merged *)
let open_dir t dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let names = List.sort compare (Array.to_list names) in
    let old = List.filter (fun n -> Filename.check_suffix n ".art") names in
    List.iter (fun n -> remove (Filename.concat dir n)) old;
    let packs = List.filter is_pack names in
    List.map (fun _ -> "stale") old
    @ if List.length packs > max_packs then merge t dir packs else []

let close t = locked t (fun () -> drop_own t)

let create ?(enabled = true) ?dir ?notify ?obs () =
  let t =
    {
      lock = Mutex.create ();
      mem = Hashtbl.create 64;
      dir = (if enabled then dir else None);
      on = enabled;
      st = { hits = 0; hits_mem = 0; hits_disk = 0; misses = 0; stores = 0;
             stale = 0; corrupt = 0; retries = 0 };
      notify;
      obs;
      dlock = Mutex.create ();
      index = Hashtbl.create 64;
      packs = Hashtbl.create 8;
      own = None;
    }
  in
  Option.iter
    (fun dir ->
      (* a dropped cache closes its pack's descriptor *)
      Gc.finalise close t;
      List.iter (count t) (open_dir t dir))
    t.dir;
  t

let forget t key l =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.index key with
  | Some l' when l' == l -> Hashtbl.remove t.index key
  | _ -> ()

(* a damaged record: no reader serves it again *)
let discard t key l =
  mark_dead l;
  forget t key l

(* the disk tier's answer for [key]: the index, else the packs other
   writers have appended to since the last look.  Only the record
   served reads blob bytes.  An indexed record that has gone (its pack
   merged away or removed) is looked up once more, as a merge may have
   copied it into a pack not seen yet. *)
let rec disk_find ?(again = true) t dir key =
  let loc, evs =
    locked t @@ fun () ->
    match Hashtbl.find_opt t.index key with
    | Some l -> (Some l, [])
    | None ->
      let evs = refresh t dir in
      (Hashtbl.find_opt t.index key, evs)
  in
  List.iter (count t) evs;
  match loc with
  | None -> Absent
  | Some l -> (
    match read_record l key with
    | Blob _ as r -> r
    | Corrupt ->
      discard t key l;
      Corrupt
    | Absent ->
      forget t key l;
      if again then disk_find ~again:false t dir key else Absent)

let find_opt (type a) t ~key : a option =
  if not t.on then None
  else begin
    let cached =
      match
        span t "cache.mem" (fun () ->
            Mutex.lock t.lock;
            let hit = Hashtbl.find_opt t.mem key in
            Mutex.unlock t.lock;
            hit)
      with
      | Some blob -> Some (blob, "hit.mem")
      | None -> (
        match t.dir with
        | None -> None
        | Some dir -> (
          match span t "cache.disk" (fun () -> disk_find t dir key) with
          | Blob blob ->
            Mutex.lock t.lock;
            Hashtbl.replace t.mem key blob;
            Mutex.unlock t.lock;
            Some (blob, "hit.disk")
          | Absent -> None
          | Corrupt ->
            count t "corrupt";
            None))
    in
    let v =
      match cached with
      | None -> None
      | Some (blob, tier) -> (
        (* a blob that matches its digest can still fail to decode if
           a build with other types wrote it under the same magic:
           treat an unmarshal failure as Corrupt and recompute *)
        match
          span t "cache.unmarshal" (fun () ->
              (Marshal.from_string blob 0 : a))
        with
        | v -> Some (v, tier)
        | exception _ ->
          Mutex.lock t.lock;
          Hashtbl.remove t.mem key;
          Mutex.unlock t.lock;
          Option.iter (discard t key)
            (locked t (fun () -> Hashtbl.find_opt t.index key));
          count t "corrupt";
          None)
    in
    match v with
    | Some (v, tier) ->
      count t tier;
      Some v
    | None ->
      count t "miss";
      None
  end

let put t ~key v =
  if t.on then
    span t "cache.append" @@ fun () ->
    let blob = Marshal.to_string v [] in
    Mutex.lock t.lock;
    Hashtbl.replace t.mem key blob;
    Mutex.unlock t.lock;
    match t.dir with
    | Some dir ->
      let r = encode key blob in
      (* a failed write leaves the artifact in the memory tier only *)
      count t
        (if locked t (fun () -> append t dir [ (key, r) ]) then "store"
         else "store-failed")
    | None -> ()

let memo t ~key compute =
  if not t.on then compute ()
  else
    match find_opt t ~key with
    | Some v -> v
    | None ->
      let v = compute () in
      put t ~key v;
      v
