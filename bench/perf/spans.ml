(** The benchmark's own span recorder, used only by traced runs.

    The harness wraps each call it makes into a library in a {e bench}
    span ({!record}) tagged with the layer that owns the callee.  The
    engine's collector already records [stage] spans (compile, harden,
    profile, verify, run) and the rewriter's [rw.*] phase spans; after
    a phase those are {e folded} in ({!fold}) as descendants, so a
    layer's time inside an opaque call (a serve request, a harden) is
    split further without adding spans to the libraries.

    Spans stay in memory; {!to_chrome} writes them out at exit. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  rid : string;  (** request id (the serve [id]); [""] when none *)
  layer : string;
  name : string;
  start : float;  (** {!Clock} seconds *)
  stop : float;
  bench : bool;  (** recorded by the harness, not folded *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable stack : (int * string) list;  (** open bench spans: id, rid *)
  mutable next : int;
}

let create () = { spans = []; stack = []; next = 1 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(** Run [f] inside a bench span.  [rid] defaults to the enclosing
    span's request id. *)
let record t ~layer ?rid name f =
  let id = fresh t in
  let parent, outer_rid =
    match t.stack with (p, r) :: _ -> (p, r) | [] -> (0, "")
  in
  let rid = Option.value rid ~default:outer_rid in
  t.stack <- (id, rid) :: t.stack;
  let start = Clock.now () in
  Fun.protect
    ~finally:(fun () ->
      let stop = Clock.now () in
      t.stack <- List.tl t.stack;
      t.spans <-
        { id; parent; rid; layer; name; start; stop; bench = true } :: t.spans)
    f

(** Fold engine-collector spans in.  [origin] is the {!Clock} time at
    which the collector was created (its [sp_start] is relative to
    that); spans starting before [since] are skipped.  A folded span
    whose parent is a bench span inherits that span's layer — it is
    the same call seen from inside — otherwise it takes
    [layer_of ~cat ~name].  Parents: an engine top-level span goes
    under the innermost bench span containing its midpoint (the two
    clocks agree only to a few microseconds, so edges are not
    trusted); a nested engine span goes under its engine parent. *)
let fold t ~origin ~since ~layer_of (obs : Obs.span list) =
  let obs =
    List.filter (fun (s : Obs.span) -> origin +. s.sp_start >= since) obs
    |> List.sort (fun (a : Obs.span) (b : Obs.span) ->
           compare (a.sp_start, a.sp_depth) (b.sp_start, b.sp_depth))
    |> List.mapi (fun i s -> (i, s))
  in
  let benches =
    List.filter (fun s -> s.bench) t.spans
    |> List.sort (fun a b -> compare (a.start, -.a.stop) (b.start, -.b.stop))
    |> Array.of_list
  in
  let nb = Array.length benches in
  (* bench sweep: [open_] holds the bench spans containing the last
     queried point, innermost first; points must be non-decreasing *)
  let bi = ref 0 and open_ = ref [] in
  let rec drop_before m = function
    | s :: rest when s.stop < m -> drop_before m rest
    | l -> l
  in
  let innermost_bench m =
    while !bi < nb && benches.(!bi).start <= m do
      let s = benches.(!bi) in
      open_ := s :: drop_before s.start !open_;
      incr bi
    done;
    open_ := drop_before m !open_;
    match !open_ with s :: _ when s.start <= m -> Some s | _ -> None
  in
  (* top-level engine spans are resolved in midpoint order *)
  let top_parent = Hashtbl.create 64 in
  List.filter (fun (_, (s : Obs.span)) -> s.sp_depth = 0) obs
  |> List.map (fun (i, (s : Obs.span)) ->
         (origin +. s.sp_start +. (s.sp_dur /. 2.0), i))
  |> List.sort compare
  |> List.iter (fun (m, i) -> Hashtbl.replace top_parent i (innermost_bench m));
  (* engine nesting: [stack] holds (depth, folded span), depth
     strictly increasing from the bottom *)
  let stack = ref [] in
  List.iter
    (fun (i, (s : Obs.span)) ->
      let start = origin +. s.sp_start in
      let stop = start +. s.sp_dur in
      stack := List.filter (fun (d, _) -> d < s.sp_depth) !stack;
      let parent, rid, layer =
        if s.sp_depth = 0 then
          match Hashtbl.find_opt top_parent i with
          | Some (Some b) -> (b.id, b.rid, b.layer)
          | _ -> (0, "", layer_of ~cat:s.sp_cat ~name:s.sp_name)
        else
          match !stack with
          | (_, p) :: _ -> (p.id, p.rid, layer_of ~cat:s.sp_cat ~name:s.sp_name)
          | [] -> (0, "", layer_of ~cat:s.sp_cat ~name:s.sp_name)
      in
      let sp =
        { id = fresh t; parent; rid; layer; name = s.sp_name; start; stop;
          bench = false }
      in
      t.spans <- sp :: t.spans;
      stack := (s.sp_depth, sp) :: !stack)
    obs

let spans t = List.rev t.spans

(** Length of the union of [ivs], each clipped to [[lo, hi]]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) ivs
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(** [(span, self seconds)]: duration minus the part of it that child
    spans cover. *)
let self_times t =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    t.spans;
  List.map
    (fun s ->
      let c = covered ~lo:s.start ~hi:s.stop (Hashtbl.find_all kids s.id) in
      (s, s.stop -. s.start -. c))
    (spans t)

(** Self seconds summed per layer, sorted by layer. *)
let layer_self t =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let cur = Option.value (Hashtbl.find_opt h s.layer) ~default:0.0 in
      Hashtbl.replace h s.layer (cur +. self))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

(** Total seconds of the spans named [name], counting a span only when
    no ancestor has the same name (a bench span and the engine's stage
    span for the same call count once). *)
let total_named t name =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.spans;
  let rec shadowed s =
    match Hashtbl.find_opt by_id s.parent with
    | None -> false
    | Some p -> p.name = name || shadowed p
  in
  List.fold_left
    (fun acc s ->
      if s.name = name && not (shadowed s) then acc +. (s.stop -. s.start)
      else acc)
    0.0 t.spans

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(** Chrome trace-event JSON: one complete ("X") event per span, the
    layer as its category, id/parent/request id as arguments. *)
let to_chrome t =
  let all = spans t in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity all in
  let ev s =
    Printf.sprintf
      "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\
       \"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"rid\":%s}}"
      (json_string s.name) (json_string s.layer)
      ((s.start -. t0) *. 1e6)
      ((s.stop -. s.start) *. 1e6)
      s.id s.parent (json_string s.rid)
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map ev all) ^ "\n]}\n"
