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

type t = {
  lock : Mutex.t;
  mem : (string, string) Hashtbl.t; (* key -> marshal blob *)
  dir : string option;
  on : bool;
  st : stats;
  notify : (string -> unit) option;
}

(* versioned header so a stale or foreign file is rejected, never
   unmarshalled.  ART2: rewrite stats gained the per-check-kind
   breakdown.  ART3: rewrite stats gained degraded_sites/skipped_sites
   (the fault layer), so ART2 blobs no longer unmarshal to the current
   types.  ART4: the pluggable check-backend refactor — rewrite stats
   gained temporal_sites and Rewrite.options a backend field (itself in
   options_key, so distinct backends also get distinct keys).  ART5:
   loop-aware check hoisting — rewrite stats gained
   hoisted_checks/widened_span_bytes and Rewrite.options a hoist field
   (also in options_key).  ART6: function-granular incremental
   hardening — Harden artifacts are now a binary-level manifest plus
   per-function rewrite parts ([find_opt]/[put] tiered API), so ART5
   whole-binary blobs no longer describe the current layout.  ART7: the
   header carries the blob's MD5 after the magic, so a flipped byte is
   Corrupt rather than a blob Marshal happens to decode. *)
let magic = "REDFAT-ART7\n"

let create ?(enabled = true) ?dir ?notify () =
  {
    lock = Mutex.create ();
    mem = Hashtbl.create 64;
    dir = (if enabled then dir else None);
    on = enabled;
    st = { hits = 0; hits_mem = 0; hits_disk = 0; misses = 0; stores = 0;
           stale = 0; corrupt = 0; retries = 0 };
    notify;
  }

let notify t ev = match t.notify with Some f -> f ev | None -> ()

let enabled t = t.on
let stats t = t.st

let key ~kind parts =
  kind ^ "-" ^ Digest.to_hex (Digest.string (String.concat "\x00" (kind :: parts)))

let path dir key = Filename.concat dir (key ^ ".art")

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

(* a disk artifact is Absent (no file), Stale (recognizable but older
   format magic), Corrupt (unrecognizable header, or a blob that does
   not match its digest), or readable.  Stale and corrupt files are
   deleted so they self-heal by recompute. *)
type loaded = Blob of string | Absent | Stale | Corrupt

let looks_like_art s =
  let p = "REDFAT-ART" in
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let disk_load dir k : loaded =
  let file = path dir k in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> Absent
  | s ->
    let m = String.length magic + 16 in
    let current = String.starts_with ~prefix:magic s in
    let blob =
      if current && String.length s > m then
        Some (String.sub s m (String.length s - m))
      else None
    in
    match blob with
    | Some b when Digest.string b = String.sub s (m - 16) 16 -> Blob b
    | _ ->
      (try Sys.remove file with Sys_error _ -> ());
      if current || not (looks_like_art s) then Corrupt else Stale

let disk_store dir k blob =
  ensure_dir dir;
  let file = path dir k in
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" file (Unix.getpid ())
      (Domain.self () :> int)
  in
  let write () =
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc magic;
        Out_channel.output_string oc (Digest.string blob);
        Out_channel.output_string oc blob);
    Sys.rename tmp file
  in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  match write () with
  | () -> true
  | exception Sys_error _ -> (
    cleanup ();
    (* one bounded retry: transient IO (ENOSPC races, a dir swept by a
       concurrent cleanup) can succeed the second time *)
    match write () with
    | () -> true
    | exception Sys_error _ ->
      cleanup ();
      false)

let find_opt (type a) t ~key : a option =
  if not t.on then None
  else begin
    (* track which tier satisfied the lookup so hits can be attributed
       (memory hit = no IO, disk hit = read + unmarshal + promotion) *)
    let cached =
      Mutex.lock t.lock;
      let hit = Hashtbl.find_opt t.mem key in
      Mutex.unlock t.lock;
      match hit with
      | Some blob -> Some (blob, `Mem)
      | None -> (
        match t.dir with
        | None -> None
        | Some dir -> (
          match disk_load dir key with
          | Blob blob ->
            Mutex.lock t.lock;
            Hashtbl.replace t.mem key blob;
            Mutex.unlock t.lock;
            Some (blob, `Disk)
          | Absent -> None
          | Stale ->
            Mutex.lock t.lock;
            t.st.stale <- t.st.stale + 1;
            Mutex.unlock t.lock;
            notify t "stale";
            None
          | Corrupt ->
            Mutex.lock t.lock;
            t.st.corrupt <- t.st.corrupt + 1;
            Mutex.unlock t.lock;
            notify t "corrupt";
            None))
    in
    let unmarshalled =
      match cached with
      | None -> None
      | Some (blob, tier) -> (
        (* a blob that matches its digest can still fail to decode if
           a build with other types wrote it under the same magic:
           treat an unmarshal failure as Corrupt and recompute *)
        match (Marshal.from_string blob 0 : a) with
        | v -> Some (v, tier)
        | exception _ ->
          Mutex.lock t.lock;
          t.st.corrupt <- t.st.corrupt + 1;
          Hashtbl.remove t.mem key;
          Mutex.unlock t.lock;
          (match t.dir with
          | Some dir -> ( try Sys.remove (path dir key) with Sys_error _ -> ())
          | None -> ());
          notify t "corrupt";
          None)
    in
    match unmarshalled with
    | Some (v, tier) ->
      Mutex.lock t.lock;
      t.st.hits <- t.st.hits + 1;
      (match tier with
      | `Mem -> t.st.hits_mem <- t.st.hits_mem + 1
      | `Disk -> t.st.hits_disk <- t.st.hits_disk + 1);
      Mutex.unlock t.lock;
      notify t (match tier with `Mem -> "hit.mem" | `Disk -> "hit.disk");
      Some v
    | None ->
      Mutex.lock t.lock;
      t.st.misses <- t.st.misses + 1;
      Mutex.unlock t.lock;
      notify t "miss";
      None
  end

let put t ~key v =
  if t.on then begin
    let blob = Marshal.to_string v [] in
    Mutex.lock t.lock;
    Hashtbl.replace t.mem key blob;
    (match t.dir with
    | Some _ -> t.st.stores <- t.st.stores + 1
    | None -> ());
    Mutex.unlock t.lock;
    match t.dir with
    | Some dir ->
      notify t "store";
      if not (disk_store dir key blob) then begin
        Mutex.lock t.lock;
        t.st.retries <- t.st.retries + 1;
        Mutex.unlock t.lock;
        (* the memory tier still holds the artifact: degrade to
           memory-only for this key rather than failing the stage *)
        notify t "store-failed"
      end
    | None -> ()
  end

let memo t ~key compute =
  if not t.on then compute ()
  else
    match find_opt t ~key with
    | Some v -> v
    | None ->
      let v = compute () in
      put t ~key v;
      v
