(** The serving wire protocol: one JSON object per line, in both
    directions, read and written by {!Obs.Json}: requests are parsed
    with its reader (unknown fields ignored, nesting bounded), and
    responses are built as values and printed on one line.

    Request schema (see docs/MANUAL.md, "redfat serve"):
    {v
    {"id": "r1", "op": "harden", "target": "spec:mcf",
     "backend": "lowfat", "hoist": false}
    v}

    [op] is required; [target] is required for [harden]/[verify]/
    [trace]; [id] defaults to ["-"]; [backend] defaults to the
    engine default; [hoist] defaults to [false].

    A malformed line is a {e data} error: it yields one
    [{"id":..., "ok": false, "error": ...}] response and the
    connection (and daemon) keeps serving. *)

type op = Harden | Verify | Trace | Stats | Ping | Shutdown

val op_name : op -> string
val op_of_name : string -> op option
val ops : op list

type request = {
  rq_id : string;
  rq_op : op;
  rq_target : string;  (** [""] for target-less ops *)
  rq_backend : Backend.Check_backend.id;
  rq_hoist : bool;
}

val needs_target : op -> bool
val parse_request : string -> (request, string) result

(** {2 Response rendering} *)

val response :
  id:string -> op:op -> ok:bool -> (string * Obs.Json.v) list -> string
(** [{"id": ..., "op": ..., "ok": ...}] followed by the given fields,
    printed by {!Obs.Json.to_string} on one line. *)

val error_response : id:string -> detail:string -> string
(** The parse-failure response (no op to echo). *)

val response_ok : string -> bool
(** Client-side: does this response line carry ["ok": true]? *)
