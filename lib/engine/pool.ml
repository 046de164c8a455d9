(* Work-stealing job pool on OCaml 5 domains.  One batch is in flight
   at a time; task indices live in per-worker deques under a single
   pool mutex (tasks are coarse — whole compile/harden/run jobs — so
   lock traffic is negligible next to task cost).  Results are slotted
   by index, making the output order independent of scheduling. *)

let default_jobs () = Domain.recommended_domain_count ()

type batch = {
  deques : int list ref array; (* per-worker pending task indices *)
  run : int -> unit;           (* never raises *)
  mutable remaining : int;     (* tasks not yet finished *)
  mutable cancelled : bool;    (* a task failed: drain without stealing *)
}

type t = {
  n : int; (* worker domains *)
  lock : Mutex.t;
  cond : Condition.t; (* new batch, work taken, batch done, closing *)
  mutable batch : batch option;
  mutable closing : bool;
  mutable domains : unit Domain.t list;
  mutable started : bool;
  obs : Obs.t option; (* task-lifetime spans, recorded in the worker *)
}

(* nested [map] calls from inside a worker run sequentially *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let create ~jobs ?obs () =
  {
    n = max 0 jobs;
    lock = Mutex.create ();
    cond = Condition.create ();
    batch = None;
    closing = false;
    domains = [];
    started = false;
    obs;
  }

let jobs t = max 1 t.n

(* with [t.lock] held: pop from own deque, else steal the back half of
   the fullest other deque *)
let take (b : batch) w : int option =
  if b.cancelled then begin
    (* drain without running: pop anything so [remaining] reaches 0 *)
    let found = ref None in
    Array.iter
      (fun d ->
        match (!found, !d) with
        | None, i :: rest ->
          d := rest;
          found := Some i
        | _ -> ())
      b.deques;
    !found
  end
  else
    match !(b.deques.(w)) with
    | i :: rest ->
      b.deques.(w) := rest;
      Some i
    | [] ->
      let victim = ref (-1) and best = ref 0 in
      Array.iteri
        (fun v d ->
          let l = List.length !d in
          if v <> w && l > !best then begin
            victim := v;
            best := l
          end)
        b.deques;
      if !victim < 0 then None
      else begin
        let d = b.deques.(!victim) in
        let rec split k xs =
          if k = 0 then ([], xs)
          else
            match xs with
            | [] -> ([], [])
            | x :: tl ->
              let kept, stolen = split (k - 1) tl in
              (x :: kept, stolen)
        in
        let kept, stolen = split (!best / 2) !d in
        d := kept;
        match stolen with
        | i :: rest ->
          b.deques.(w) := rest;
          Some i
        | [] -> None
      end

let worker t w () =
  Domain.DLS.set in_worker true;
  Mutex.lock t.lock;
  let rec loop () =
    match t.batch with
    | Some b -> (
      match take b w with
      | Some i ->
        Mutex.unlock t.lock;
        b.run i;
        Mutex.lock t.lock;
        b.remaining <- b.remaining - 1;
        if b.remaining = 0 then begin
          t.batch <- None;
          Condition.broadcast t.cond
        end;
        loop ()
      | None ->
        Condition.wait t.cond t.lock;
        loop ())
    | None ->
      if t.closing then Mutex.unlock t.lock
      else begin
        Condition.wait t.cond t.lock;
        loop ()
      end
  in
  loop ()

let close t =
  Mutex.lock t.lock;
  while t.batch <> None do
    Condition.wait t.cond t.lock
  done;
  t.closing <- true;
  Condition.broadcast t.cond;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join ds

(* the exit hook captures only the pool, so a dropped engine is never
   pinned by it *)
let ensure_started t =
  if not t.started then begin
    t.started <- true;
    t.domains <- List.init t.n (fun w -> Domain.spawn (worker t w));
    at_exit (fun () -> close t)
  end

let map t f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else if t.n <= 1 || t.closing || Domain.DLS.get in_worker then
    Array.map f tasks
  else begin
    let results = Array.make n None in
    let fail = ref None in
    (* lowest-index failure wins *)
    let workers = t.n in
    let deques =
      Array.init workers (fun w ->
          let lo = w * n / workers and hi = (w + 1) * n / workers in
          ref (List.init (hi - lo) (fun k -> lo + k)))
    in
    let batch_cell = ref None in
    let run_task i =
      let b = Option.get !batch_cell in
      (* after a failure, still run the tasks below it: one of them
         may fail too, and the lowest index must win whatever the
         schedule *)
      let skip =
        Mutex.lock t.lock;
        let c = match !fail with Some (j, _, _) -> j < i | None -> false in
        Mutex.unlock t.lock;
        c
      in
      if not skip then
        let f =
          match t.obs with
          | None -> f
          | Some obs ->
            (* runs in the worker domain: the span lands in that
               domain's buffer, so each task's lifetime is attributed
               to the domain that executed it *)
            fun x -> Obs.span obs ~cat:"pool" "pool.task" (fun () -> f x)
        in
        match f tasks.(i) with
        | v -> results.(i) <- Some v
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock t.lock;
          b.cancelled <- true;
          (match !fail with
          | Some (j, _, _) when j <= i -> ()
          | _ -> fail := Some (i, e, bt));
          Mutex.unlock t.lock
    in
    let b = { deques; run = run_task; remaining = n; cancelled = false } in
    batch_cell := Some b;
    Mutex.lock t.lock;
    ensure_started t;
    while t.batch <> None do
      Condition.wait t.cond t.lock
    done;
    t.batch <- Some b;
    Condition.broadcast t.cond;
    while b.remaining > 0 do
      Condition.wait t.cond t.lock
    done;
    Mutex.unlock t.lock;
    match !fail with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

(* per-task isolation: each task's exception becomes its own [Error]
   slot instead of cancelling the batch — the fault-tolerant pipeline
   builds per-target records from these *)
let map_result t f xs =
  map_list t (fun x -> try Ok (f x) with e -> Error e) xs
