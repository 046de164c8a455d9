(* The one cursor every decoder of outside bytes reads through.  See
   reader.mli. *)

type what = Magic | Truncated | Int | Section | Nocode

type error = { what : what; src : string; off : int; line : int; msg : string }

exception Error of error

type t = { src : string; data : string; mutable pos : int; mutable mark : int }

let create ~src data = { src; data; pos = 0; mark = 0 }

let code = function
  | Magic -> "magic"
  | Truncated -> "truncated"
  | Int -> "int"
  | Section -> "section"
  | Nocode -> "nocode"

let message (e : error) =
  Printf.sprintf "%s:%d: %s (byte %d)" e.src e.line e.msg e.off

let fail t what msg =
  let line = ref 1 in
  String.iteri (fun i c -> if c = '\n' && i < t.mark then incr line) t.data;
  raise (Error { what; src = t.src; off = t.mark; line = !line; msg })

let magic t m =
  if not (String.starts_with ~prefix:m t.data) then fail t Magic "bad magic";
  t.pos <- String.length m

let line t =
  let n = String.length t.data in
  if t.pos >= n then None
  else begin
    t.mark <- t.pos;
    let e = try String.index_from t.data t.pos '\n' with Not_found -> n in
    t.pos <- min (e + 1) n;
    Some (String.sub t.data t.mark (e - t.mark))
  end

let field t =
  t.mark <- t.pos;
  match String.index_from t.data t.pos '\n' with
  | e ->
    t.pos <- e + 1;
    String.sub t.data t.mark (e - t.mark)
  | exception Not_found -> fail t Truncated "truncated"

let bytes t n =
  t.mark <- t.pos;
  let left = String.length t.data - t.pos in
  if n < 0 || n > left then
    fail t Section (Printf.sprintf "%d bytes claimed, %d left" n left);
  t.pos <- t.pos + n;
  String.sub t.data t.mark n

let count t n ~size =
  let left = String.length t.data - t.pos in
  if n > left / size then
    fail t Section (Printf.sprintf "count %d exceeds the %d bytes left" n left);
  n

let hex_opt s =
  let rec go v i =
    if i = String.length s then Some v
    else
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> -1
      in
      if d < 0 || v > max_int lsr 4 then None else go ((v lsl 4) lor d) (i + 1)
  in
  if s = "" then None else go 0 0

let hex t s =
  match hex_opt s with
  | Some v -> v
  | None -> fail t Int (Printf.sprintf "bad hex integer %S" s)

(* int_of_string also takes 0x, 0b, _ and +, which these formats do
   not; on plain decimal it rejects what does not fit *)
let dec_opt s =
  let sign = if String.starts_with ~prefix:"-" s then 1 else 0 in
  let digits = String.sub s sign (String.length s - sign) in
  if digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits
  then int_of_string_opt s
  else None

let dec t s =
  match dec_opt s with
  | Some v -> v
  | None -> fail t Int (Printf.sprintf "bad decimal integer %S" s)
