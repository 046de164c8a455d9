(* Deterministic, seeded fault injection.  See faultinject.mli for
   the SPEC grammar.  Decisions are pure functions of
   (point, label, per-label hit index[, seed]), never of global
   ordering, so parallel == sequential holds under injection. *)

type clause = {
  point : string;
  substr : string option;  (* label must contain this *)
  nth : int option;        (* fire only on the Nth hit per label *)
  pct : int option;        (* fire on pct% of hits *)
  seed : int;
}

type t = {
  clauses : clause list;
  spec : string;                             (* canonical rendering *)
  lock : Mutex.t;
  counts : (string * string, int) Hashtbl.t; (* (point,label) -> hits *)
}

let points =
  [ "parse"; "compile"; "profile"; "rewrite"; "harden"; "cache"; "verify";
    "run"; "io" ]

let make clauses spec =
  { clauses; spec; lock = Mutex.create (); counts = Hashtbl.create 16 }

let none = make [] "none"
let is_none t = t.clauses = []
let to_string t = t.spec

let parse_clause (s : string) : (clause, string) result =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  (* split off %PCT[~SEED], then @N, then :SUBSTR *)
  let cut c str =
    match String.index_opt str c with
    | None -> (str, None)
    | Some i ->
      ( String.sub str 0 i,
        Some (String.sub str (i + 1) (String.length str - i - 1)) )
  in
  let s, pct_part = cut '%' s in
  let s, nth_part = cut '@' s in
  let point, substr = cut ':' s in
  let int_of what = function
    | None -> Ok None
    | Some x -> (
      match Binfmt.Reader.dec_opt x with
      | Some v when v > 0 -> Ok (Some v)
      | _ -> err "fault spec: bad %s %S" what x)
  in
  if not (List.mem point points) then
    err "fault spec: unknown point %S (valid: %s)" point
      (String.concat "|" points)
  else
    let pct_part, seed_part =
      match pct_part with
      | None -> (None, None)
      | Some p ->
        let p, sd = cut '~' p in
        (Some p, sd)
    in
    match (int_of "count" nth_part, int_of "percentage" pct_part,
           int_of "seed" seed_part)
    with
    | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e
    | Ok nth, Ok pct, Ok seed ->
      (match pct with
      | Some p when p > 100 -> err "fault spec: percentage %d > 100" p
      | _ ->
        Ok
          {
            point;
            substr = (match substr with Some "" -> None | s -> s);
            nth;
            pct;
            seed = Option.value seed ~default:0;
          })

let parse (spec : string) : (t, string) result =
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok none
  else
    let rec go acc = function
      | [] -> Ok (make (List.rev acc) spec)
      | c :: rest -> (
        match parse_clause (String.trim c) with
        | Ok cl -> go (cl :: acc) rest
        | Error e -> Error e)
    in
    go [] (String.split_on_char ',' spec)

let of_env () =
  match Sys.getenv_opt "REDFAT_FAULT" with
  | None | Some "" -> none
  | Some spec -> (
    match parse spec with
    | Ok t -> t
    | Error e ->
      Fault.fail (Fault.Input { what = "script"; detail = "REDFAT_FAULT: " ^ e }))

(* splitmix-style avalanche: the pct decision for hit k of (point,
   label) under seed — pure, order-independent *)
let decide_pct ~seed ~point ~label ~k ~pct =
  let h = ref (Hashtbl.hash (seed, point, label, k) land 0x3FFFFFFF) in
  h := !h * 0x85ebca6b land 0x3FFFFFFF;
  h := (!h lxor (!h lsr 13)) * 0xc2b2ae35 land 0x3FFFFFFF;
  !h mod 100 < pct

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* the canonical typed fault for an injection point *)
let fault_for ~point ~label : exn =
  let detail = Printf.sprintf "injected at %s (%s)" point label in
  let kind : Fault.kind =
    match point with
    | "parse" -> Parse { what = "magic"; detail }
    | "compile" -> Parse { what = "source"; detail }
    | "profile" -> Run { what = "profile"; detail }
    | "rewrite" -> Rewrite { what = "site"; site = None; detail }
    | "harden" -> Rewrite { what = "abort"; site = None; detail }
    | "cache" -> Cache { what = "io"; key = label; detail }
    | "verify" -> Verify { unaccounted = 0; detail }
    | "run" -> Run { what = "fault"; detail }
    | "io" -> Io { what = "read"; path = label; detail }
    | _ -> Run { what = "fault"; detail }
  in
  Fault.Fault (Fault.v kind)

let hook t ~point ~label =
  if t.clauses <> [] then begin
    let matching =
      List.filter
        (fun c ->
          c.point = point
          && match c.substr with None -> true | Some s -> contains label s)
        t.clauses
    in
    if matching <> [] then begin
      Mutex.lock t.lock;
      let k = 1 + Option.value (Hashtbl.find_opt t.counts (point, label)) ~default:0 in
      Hashtbl.replace t.counts (point, label) k;
      Mutex.unlock t.lock;
      let fires c =
        (match c.nth with None -> true | Some n -> k = n)
        && match c.pct with
           | None -> true
           | Some pct -> decide_pct ~seed:c.seed ~point ~label ~k ~pct
      in
      if List.exists fires matching then raise (fault_for ~point ~label)
    end
  end

let hook_fn t ~label =
  if is_none t then None
  else
    Some
      (fun ~stage ~site ->
        ignore stage;
        hook t ~point:"rewrite"
          ~label:(Printf.sprintf "%s/site:%x" label site))
