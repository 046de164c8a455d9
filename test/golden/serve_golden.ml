(** Script-mode response lines of the serving daemon over a fixed
    request list: harden, verify, trace and stats over the three
    [examples/*.mc] sources and three [spec:] targets, under every
    check backend with hoisting off and on.

    Each (target, backend, hoist) cell asks for its verify and trace
    answers three times, so every answer is given by a cold request
    (the hot tier only remembers the key), by the request that admits
    it, and by a hot-tier hit.  Hoist-off cells ask verify first and
    hoist-on cells trace first, so both verbs also answer the request
    that computes the artifact itself.  A stats request closes each
    target.

    The one field a stats line does not pin is [serve.cache.bytes]:
    it is the marshalled size of what the hot tier holds, a property
    of the artifact's representation, not of any answer.  It is
    rendered as [_]; every other byte of every line is pinned.

    Paths are relative: run it from a directory holding [examples/]. *)

let targets =
  [
    "examples/victim.mc"; "examples/interp.mc"; "examples/fortran_idiom.mc";
    "spec:mcf"; "spec:bzip2"; "spec:lbm";
  ]

let requests () =
  let cell tgt backend hoist =
    let f =
      Printf.sprintf {|, "target": %S, "backend": %S, "hoist": %b|} tgt
        backend hoist
    in
    let three op = List.init 3 (fun _ -> (op, f)) in
    if hoist then three "trace" @ three "verify" @ [ ("harden", f) ]
    else three "verify" @ three "trace" @ [ ("harden", f) ]
  in
  List.concat_map
    (fun tgt ->
      List.concat_map
        (fun backend -> cell tgt backend false @ cell tgt backend true)
        (List.map Backend.Check_backend.name Backend.Check_backend.all)
      @ [ ("stats", "") ])
    targets
  |> List.mapi (fun i (op, f) ->
         Printf.sprintf {|{"id": "r%d", "op": %S%s}|} (i + 1) op f)

let bytes_field = {|"serve.cache.bytes": |}

(* [serve.cache.bytes]'s value rendered as [_] *)
let mask line =
  let n = String.length bytes_field in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = bytes_field then Some (i + n)
    else find (i + 1)
  in
  match find 0 with
  | None -> line
  | Some start ->
    let stop = ref start in
    while !stop < String.length line && line.[!stop] <> ',' && line.[!stop] <> '}'
    do
      incr stop
    done;
    String.sub line 0 start ^ "_"
    ^ String.sub line !stop (String.length line - !stop)

let lines () =
  let eng = Engine.Pipeline.create ~jobs:1 ~cache:true () in
  Fun.protect ~finally:(fun () -> Engine.Pipeline.close eng) @@ fun () ->
  let srv = Serve.Server.create eng in
  let out = ref [] in
  ignore
    (Serve.Server.run_script srv ~lines:(requests ())
       ~emit:(fun r -> out := mask r :: !out));
  List.rev !out
