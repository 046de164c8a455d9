type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable coalesced : int;
  mutable admitted : int;
  mutable evictions : int;
  mutable oversize : int;
  mutable bytes : int;
}

(* intrusive doubly-linked recency list around a cyclic sentinel:
   sentinel.next = most recent, sentinel.prev = eviction victim *)
type node = {
  n_key : string;
  n_blob : string;
  n_size : int;
  mutable n_prev : node;
  mutable n_next : node;
}

(* a single-flight computation in progress; waiters sleep on the
   cache-wide condition until the leader resolves it *)
type flight = {
  mutable f_result : (string, exn) result option;
  mutable f_waiters : int;
}

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  tbl : (string, node) Hashtbl.t;
  flights : (string, flight) Hashtbl.t;
  ghost : (string, unit) Hashtbl.t;  (* keys touched once, not admitted *)
  ghost_q : string Queue.t;          (* FIFO bound for the ghost set *)
  ghost_cap : int;
  cap : int;
  sentinel : node;
  st : stats;
  notify : (string -> unit) option;
}

let make_sentinel () =
  let rec s =
    { n_key = ""; n_blob = ""; n_size = 0; n_prev = s; n_next = s }
  in
  s

let create ?(cap_bytes = 64 * 1024 * 1024) ?(ghost_cap = 4096) ?notify () =
  {
    lock = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    flights = Hashtbl.create 8;
    ghost = Hashtbl.create 64;
    ghost_q = Queue.create ();
    ghost_cap = max 1 ghost_cap;
    cap = max 0 cap_bytes;
    sentinel = make_sentinel ();
    st =
      { hits = 0; misses = 0; coalesced = 0; admitted = 0; evictions = 0;
        oversize = 0; bytes = 0 };
    notify;
  }

let cap_bytes t = t.cap
let stats t = t.st
let notify t ev = match t.notify with Some f -> f ev | None -> ()

type outcome = Hit | Miss | Coalesced

let outcome_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Coalesced -> "coalesced"

(* --- recency list (all under t.lock) -------------------------------- *)

let unlink n =
  n.n_prev.n_next <- n.n_next;
  n.n_next.n_prev <- n.n_prev;
  n.n_prev <- n;
  n.n_next <- n

let push_front t n =
  n.n_next <- t.sentinel.n_next;
  n.n_prev <- t.sentinel;
  t.sentinel.n_next.n_prev <- n;
  t.sentinel.n_next <- n

let touch t n =
  unlink n;
  push_front t n

(* --- the ghost set (touched-once keys, FIFO-bounded) ----------------- *)

let ghost_add t key =
  if not (Hashtbl.mem t.ghost key) then begin
    Hashtbl.replace t.ghost key ();
    Queue.push key t.ghost_q;
    (* the queue can hold keys since promoted out of the ghost set;
       drain those for free while enforcing the bound *)
    while Hashtbl.length t.ghost > t.ghost_cap && not (Queue.is_empty t.ghost_q)
    do
      let victim = Queue.pop t.ghost_q in
      Hashtbl.remove t.ghost victim
    done
  end

(* --- admission + eviction (under t.lock) ----------------------------- *)

let evict_one t =
  let victim = t.sentinel.n_prev in
  if victim != t.sentinel then begin
    unlink victim;
    Hashtbl.remove t.tbl victim.n_key;
    t.st.bytes <- t.st.bytes - victim.n_size;
    t.st.evictions <- t.st.evictions + 1;
    (* a re-touched victim should re-admit on its next computation *)
    ghost_add t victim.n_key;
    true
  end
  else false

let admit t key blob =
  let size = String.length blob in
  if size > t.cap then begin
    t.st.oversize <- t.st.oversize + 1;
    ghost_add t key;
    false
  end
  else begin
    Hashtbl.remove t.ghost key;
    (match Hashtbl.find_opt t.tbl key with
    | Some n -> touch t n
    | None ->
      let n =
        let rec n' =
          { n_key = key; n_blob = blob; n_size = size; n_prev = n';
            n_next = n' }
        in
        n'
      in
      Hashtbl.replace t.tbl key n;
      push_front t n;
      t.st.bytes <- t.st.bytes + size;
      t.st.admitted <- t.st.admitted + 1;
      while t.st.bytes > t.cap && evict_one t do () done);
    true
  end

(* --- the lookup ------------------------------------------------------ *)

let get t ~key compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
    touch t n;
    t.st.hits <- t.st.hits + 1;
    Mutex.unlock t.lock;
    notify t "hits";
    (n.n_blob, Hit)
  | None -> (
    match Hashtbl.find_opt t.flights key with
    | Some f ->
      (* single-flight: wait for the leader; a waiter also counts as a
         touch, so a concurrent burst admits the blob immediately *)
      f.f_waiters <- f.f_waiters + 1;
      t.st.coalesced <- t.st.coalesced + 1;
      let rec wait () =
        match f.f_result with
        | Some r -> r
        | None ->
          Condition.wait t.cond t.lock;
          wait ()
      in
      let r = wait () in
      Mutex.unlock t.lock;
      notify t "coalesced";
      (match r with Ok blob -> (blob, Coalesced) | Error e -> raise e)
    | None ->
      let f = { f_result = None; f_waiters = 0 } in
      Hashtbl.replace t.flights key f;
      t.st.misses <- t.st.misses + 1;
      Mutex.unlock t.lock;
      notify t "misses";
      let res = match compute () with b -> Ok b | exception e -> Error e in
      Mutex.lock t.lock;
      f.f_result <- Some res;
      Hashtbl.remove t.flights key;
      let admitted =
        match res with
        | Ok blob ->
          (* second touch = previously ghosted, or a concurrent burst *)
          if Hashtbl.mem t.ghost key || f.f_waiters > 0 then admit t key blob
          else begin
            ghost_add t key;
            false
          end
        | Error _ -> false
      in
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      if admitted then notify t "admitted";
      (match res with Ok blob -> (blob, Miss) | Error e -> raise e))

let mem t key =
  Mutex.lock t.lock;
  let r = Hashtbl.mem t.tbl key in
  Mutex.unlock t.lock;
  r

let keys_mru t =
  Mutex.lock t.lock;
  let rec go n acc =
    if n == t.sentinel then List.rev acc else go n.n_next (n.n_key :: acc)
  in
  let r = go t.sentinel.n_next [] in
  Mutex.unlock t.lock;
  r
