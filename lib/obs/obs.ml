type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
}

type hist = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_buckets : (int * int) list;
}

let num_buckets = 63

type hbuf = {
  mutable hn : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
  hb : int array;
}

(* a span as a buffer keeps it: nanoseconds since the collector was
   created, as ints, so the record holds no boxed float *)
type rec_ = {
  r_name : string;
  r_cat : string;
  r_start : int;
  r_dur : int;
  r_depth : int;
}

(* One buffer per (collector, domain): mutated only by its owning
   domain, so recording takes no lock.  The registry list is the only
   shared state, appended under [reg] once per domain.  It is also what
   keeps a buffer alive: a domain's DLS slot holds its buffer weakly,
   since a DLS key is never freed and a strong slot would keep every
   span of every dropped collector for the domain's lifetime. *)
type buf = {
  b_tid : int;
  mutable b_spans : rec_ list; (* newest first *)
  b_counters : (string, int ref) Hashtbl.t;
  b_hists : (string, hbuf) Hashtbl.t;
  mutable b_depth : int;
}

type t = {
  t0 : float;
  key : buf Weak.t Domain.DLS.key;
  reg : Mutex.t;
  mutable bufs : buf list;
}

let now () = Unix.gettimeofday ()

let create () =
  {
    t0 = now ();
    key = Domain.DLS.new_key (fun () -> Weak.create 1);
    reg = Mutex.create ();
    bufs = [];
  }

let buf t =
  let slot = Domain.DLS.get t.key in
  match Weak.get slot 0 with
  | Some b -> b
  | None ->
    let b =
      {
        b_tid = (Domain.self () :> int);
        b_spans = [];
        b_counters = Hashtbl.create 16;
        b_hists = Hashtbl.create 8;
        b_depth = 0;
      }
    in
    Weak.set slot 0 (Some b);
    Mutex.lock t.reg;
    t.bufs <- b :: t.bufs;
    Mutex.unlock t.reg;
    b

(* --- recording ------------------------------------------------------- *)

let ns s = Float.to_int (s *. 1e9)
let secs ns = Float.of_int ns /. 1e9

let record b ~cat name ~start ~dur ~depth =
  b.b_spans <-
    { r_name = name; r_cat = cat; r_start = start; r_dur = dur;
      r_depth = depth }
    :: b.b_spans

let add_span t ?(cat = "misc") name ~start ~dur =
  let b = buf t in
  record b ~cat name ~start:(ns (start -. t.t0)) ~dur:(ns dur)
    ~depth:b.b_depth

let span t ?(cat = "misc") name f =
  let b = buf t in
  let depth = b.b_depth in
  b.b_depth <- depth + 1;
  let start = now () in
  let finish () =
    b.b_depth <- depth;
    record b ~cat name ~start:(ns (start -. t.t0)) ~dur:(ns (now () -. start))
      ~depth
  in
  match f () with
  | v -> finish (); v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

let add t ?(n = 1) name =
  let b = buf t in
  match Hashtbl.find_opt b.b_counters name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace b.b_counters name (ref n)

let bucket_of v = if v <= 0 then 0 else
  let rec go k v = if v = 0 then k else go (k + 1) (v lsr 1) in
  min (go 0 v) (num_buckets - 1)

let bucket_lo idx = if idx = 0 then 0 else 1 lsl (idx - 1)

let observe t name v =
  let b = buf t in
  let h =
    match Hashtbl.find_opt b.b_hists name with
    | Some h -> h
    | None ->
      let h =
        { hn = 0; hsum = 0; hmin = max_int; hmax = min_int;
          hb = Array.make num_buckets 0 }
      in
      Hashtbl.replace b.b_hists name h;
      h
  in
  h.hn <- h.hn + 1;
  h.hsum <- h.hsum + v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v;
  let i = bucket_of v in
  h.hb.(i) <- h.hb.(i) + 1

(* --- merged read side ------------------------------------------------ *)

let all_bufs t =
  Mutex.lock t.reg;
  let bs = t.bufs in
  Mutex.unlock t.reg;
  bs

let counters t =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name r ->
          match Hashtbl.find_opt merged name with
          | Some m -> m := !m + !r
          | None -> Hashtbl.replace merged name (ref !r))
        b.b_counters)
    (all_bufs t);
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) merged []
  |> List.sort compare

let counter t name =
  List.fold_left
    (fun acc b ->
      match Hashtbl.find_opt b.b_counters name with
      | Some r -> acc + !r
      | None -> acc)
    0 (all_bufs t)

let histograms t =
  let merged = Hashtbl.create 8 in
  List.iter
    (fun b ->
      Hashtbl.iter
        (fun name (h : hbuf) ->
          let m =
            match Hashtbl.find_opt merged name with
            | Some m -> m
            | None ->
              let m =
                { hn = 0; hsum = 0; hmin = max_int; hmax = min_int;
                  hb = Array.make num_buckets 0 }
              in
              Hashtbl.replace merged name m;
              m
          in
          m.hn <- m.hn + h.hn;
          m.hsum <- m.hsum + h.hsum;
          if h.hmin < m.hmin then m.hmin <- h.hmin;
          if h.hmax > m.hmax then m.hmax <- h.hmax;
          Array.iteri (fun i c -> m.hb.(i) <- m.hb.(i) + c) h.hb)
        b.b_hists)
    (all_bufs t);
  Hashtbl.fold
    (fun name m acc ->
      let buckets = ref [] in
      for i = num_buckets - 1 downto 0 do
        if m.hb.(i) > 0 then buckets := (bucket_lo i, m.hb.(i)) :: !buckets
      done;
      ( name,
        { h_count = m.hn; h_sum = m.hsum; h_min = m.hmin; h_max = m.hmax;
          h_buckets = !buckets } )
      :: acc)
    merged []
  |> List.sort compare

let span_of b r =
  {
    sp_name = r.r_name;
    sp_cat = r.r_cat;
    sp_tid = b.b_tid;
    sp_start = secs r.r_start;
    sp_dur = secs r.r_dur;
    sp_depth = r.r_depth;
  }

let spans t =
  List.concat_map (fun b -> List.map (span_of b) b.b_spans) (all_bufs t)
  |> List.sort (fun a b -> compare (a.sp_start, a.sp_depth) (b.sp_start, b.sp_depth))

let span_summary ?cat t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun r ->
          if cat = None || cat = Some r.r_cat then begin
            let dur = secs r.r_dur in
            match Hashtbl.find_opt tbl r.r_name with
            | Some (calls, secs) ->
              Hashtbl.replace tbl r.r_name (calls + 1, secs +. dur)
            | None -> Hashtbl.replace tbl r.r_name (1, dur)
          end)
        b.b_spans)
    (all_bufs t);
  Hashtbl.fold (fun name (calls, secs) acc -> (name, calls, secs) :: acc) tbl []
  |> List.sort compare

let well_formed t = List.for_all (fun b -> b.b_depth = 0) (all_bufs t)

(* --- the JSON codec --------------------------------------------------- *)

module Json = struct
  type v =
    | Null
    | Bool of bool
    | Int of int
    | Num of float
    | Str of string
    | Arr of v list
    | Obj of (string * v) list

  let add_escaped b s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

  let escape s =
    let b = Buffer.create (String.length s + 8) in
    add_escaped b s;
    Buffer.contents b

  let to_string ?(lines = 0) v =
    let b = Buffer.create 256 in
    let str s =
      Buffer.add_char b '"';
      add_escaped b s;
      Buffer.add_char b '"'
    in
    (* a container nested [depth] deep puts each member on its own
       line when [depth < lines] *)
    let container depth op cl member items =
      let broken = depth < lines && items <> [] in
      let newline d = Buffer.add_string b ("\n" ^ String.make (2 * d) ' ') in
      Buffer.add_char b op;
      List.iteri
        (fun i m ->
          if i > 0 then Buffer.add_char b ',';
          if broken then newline (depth + 1)
          else if i > 0 then Buffer.add_char b ' ';
          member m)
        items;
      if broken then newline depth;
      Buffer.add_char b cl
    in
    let rec value depth = function
      | Null -> Buffer.add_string b "null"
      | Bool x -> Buffer.add_string b (if x then "true" else "false")
      | Int i -> Buffer.add_string b (string_of_int i)
      | Num x ->
        Buffer.add_string b
          (if Float.is_integer x && Float.abs x < 1e15 then
             Printf.sprintf "%.1f" x
           else Printf.sprintf "%.6g" x)
      | Str s -> str s
      | Arr items -> container depth '[' ']' (value (depth + 1)) items
      | Obj fields ->
        container depth '{' '}'
          (fun (k, x) ->
            str k;
            Buffer.add_string b ": ";
            value (depth + 1) x)
          fields
    in
    value 0 v;
    Buffer.contents b

  exception Err of string * int

  (* deeper nesting is a parse error: the reader recurses once per
     container, and a request line of a million brackets must not stall
     the domain that parses it *)
  let max_depth = 64

  let parse (s : string) : (v, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Err (msg, !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("expected " ^ word)
    in
    (* exactly four hex digits: [int_of_string] would also take '_' *)
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let code = ref 0 in
      for k = !pos to !pos + 3 do
        let d =
          match s.[k] with
          | '0' .. '9' as c -> Char.code c - 48
          | 'a' .. 'f' as c -> Char.code c - 87
          | 'A' .. 'F' as c -> Char.code c - 55
          | _ -> fail "bad \\u escape"
        in
        code := (!code lsl 4) lor d
      done;
      pos := !pos + 4;
      !code
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents b
        | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            let code = hex4 () in
            let code =
              if code >= 0xD800 && code <= 0xDBFF then begin
                (* a high surrogate must be followed by an escaped low
                   one; together they name one code point *)
                if !pos + 2 > n || s.[!pos] <> '\\' || s.[!pos + 1] <> 'u'
                then fail "lone surrogate in \\u escape";
                pos := !pos + 2;
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then
                  fail "lone surrogate in \\u escape";
                0x10000 + ((code - 0xD800) lsl 10) + (lo - 0xDC00)
              end
              else if code >= 0xDC00 && code <= 0xDFFF then
                fail "lone surrogate in \\u escape"
              else code
            in
            Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | _ -> fail "bad escape");
          go ())
        | c ->
          Buffer.add_char b c;
          go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value depth =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some ('{' | '[') when depth = max_depth ->
        fail (Printf.sprintf "nesting deeper than %d" max_depth)
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value 0 in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Err (msg, p) ->
      Error (Printf.sprintf "JSON error at offset %d: %s" p msg)

  let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
  let to_num = function
    | Num f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
  let to_str = function Str s -> Some s | _ -> None
  let to_arr = function Arr l -> Some l | _ -> None
end

(* --- exporters ------------------------------------------------------- *)

let us x = x *. 1e6

let to_chrome ?(process_name = "redfat") t =
  let b = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\"traceEvents\":[\n";
  let first = ref true in
  let sep () = if !first then first := false else add ",\n" in
  sep ();
  add
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
     \"args\":{\"name\":\"%s\"}}"
    (Json.escape process_name);
  let tids =
    List.sort_uniq compare (List.map (fun b -> b.b_tid) (all_bufs t))
  in
  List.iter
    (fun tid ->
      sep ();
      add
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\
         \"args\":{\"name\":\"domain %d\"}}"
        tid tid)
    tids;
  let last_ts = ref 0.0 in
  List.iter
    (fun sp ->
      let ts = us sp.sp_start and dur = us sp.sp_dur in
      if ts +. dur > !last_ts then last_ts := ts +. dur;
      sep ();
      add
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\
         \"dur\":%.3f,\"pid\":0,\"tid\":%d}"
        (Json.escape sp.sp_name) (Json.escape sp.sp_cat) ts dur sp.sp_tid)
    (spans t);
  List.iter
    (fun (name, v) ->
      sep ();
      add
        "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":0,\"tid\":0,\
         \"args\":{\"value\":%d}}"
        (Json.escape name) !last_ts v)
    (counters t);
  add "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let summary t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let sums = span_summary t in
  if sums <> [] then begin
    add "spans            calls   seconds\n";
    List.iter
      (fun (name, calls, secs) -> add "%-16s %5d %9.3f\n" name calls secs)
      sums
  end;
  let cs = counters t in
  if cs <> [] then begin
    add "counters\n";
    List.iter (fun (name, v) -> add "  %-24s %12d\n" name v) cs
  end;
  let hs = histograms t in
  if hs <> [] then begin
    add "histograms                 count        sum   min   max      mean\n";
    List.iter
      (fun (name, h) ->
        add "  %-24s %6d %10d %5d %5d %9.1f\n" name h.h_count h.h_sum
          h.h_min h.h_max
          (float_of_int h.h_sum /. float_of_int (max 1 h.h_count)))
      hs
  end;
  Buffer.contents b
