module J = Obs.Json

type op = Harden | Verify | Trace | Stats | Ping | Shutdown

let op_name = function
  | Harden -> "harden"
  | Verify -> "verify"
  | Trace -> "trace"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let op_of_name = function
  | "harden" -> Some Harden
  | "verify" -> Some Verify
  | "trace" -> Some Trace
  | "stats" -> Some Stats
  | "ping" -> Some Ping
  | "shutdown" -> Some Shutdown
  | _ -> None

let ops = [ Harden; Verify; Trace; Stats; Ping; Shutdown ]

type request = {
  rq_id : string;
  rq_op : op;
  rq_target : string;
  rq_backend : Backend.Check_backend.id;
  rq_hoist : bool;
}

let needs_target = function
  | Harden | Verify | Trace -> true
  | Stats | Ping | Shutdown -> false

(* one request per line; unknown fields are ignored so clients can
   annotate requests freely.  Parse errors are data errors (the line is
   answered with ok:false), never daemon faults. *)
let parse_request line : (request, string) result =
  match J.parse line with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> (
    let str name = Option.bind (J.member name j) J.to_str in
    let bool name =
      match J.member name j with Some (J.Bool b) -> Some b | _ -> None
    in
    let rq_id = Option.value (str "id") ~default:"-" in
    match str "op" with
    | None -> Error "missing \"op\""
    | Some opn -> (
      match op_of_name opn with
      | None ->
        Error
          (Printf.sprintf "unknown op %S (one of: %s)" opn
             (String.concat "|" (List.map op_name ops)))
      | Some rq_op -> (
        let target = Option.value (str "target") ~default:"" in
        if needs_target rq_op && target = "" then
          Error (Printf.sprintf "op %S needs a \"target\"" opn)
        else
          match
            match str "backend" with
            | None -> Ok Backend.Check_backend.default
            | Some b -> (
              match Backend.Check_backend.of_name b with
              | Some id -> Ok id
              | None -> Error (Printf.sprintf "unknown backend %S" b))
          with
          | Error e -> Error e
          | Ok rq_backend ->
            Ok
              {
                rq_id;
                rq_op;
                rq_target = target;
                rq_backend;
                rq_hoist = Option.value (bool "hoist") ~default:false;
              })))

(* --- response rendering ---------------------------------------------- *)

let response ~id ~op ~ok fields =
  J.to_string
    (J.Obj
       ([ ("id", J.Str id); ("op", J.Str (op_name op)); ("ok", J.Bool ok) ]
       @ fields))

let error_response ~id ~detail =
  J.to_string
    (J.Obj [ ("id", J.Str id); ("ok", J.Bool false); ("error", J.Str detail) ])

(* the client side of the check: a response line is "ok" iff its
   "ok" field is true *)
let response_ok line =
  match J.parse line with
  | Error _ -> false
  | Ok j -> ( match J.member "ok" j with Some (J.Bool b) -> b | _ -> false)
