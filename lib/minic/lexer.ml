(** Lexer for MiniC source text (the [.mc] files the CLI compiles).

    Tokens carry line/column positions for error reporting.  Comments
    are [// ...] and [/* ... */]. *)

type token =
  | INT of int
  | IDENT of string
  (* keywords *)
  | KFN | KVAR | KIF | KELSE | KWHILE | KFOR | KIN | KRETURN
  | KPRINT | KFREE | KALLOC | KBALLOC | KINPUT | KGLOBAL
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACK | RBRACK | DOTBRACK
  | COMMA | SEMI | ASSIGN | DOTDOT
  (* operators *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | SHL | SHR
  | EQ | NE | LT | LE | GT | GE | ANDAND | OROR
  | EOF

type pos = { line : int; col : int }

type t = { tok : token; pos : pos }

exception Lex_error of string * pos

let keyword = function
  | "fn" -> Some KFN
  | "var" -> Some KVAR
  | "if" -> Some KIF
  | "else" -> Some KELSE
  | "while" -> Some KWHILE
  | "for" -> Some KFOR
  | "in" -> Some KIN
  | "return" -> Some KRETURN
  | "print" -> Some KPRINT
  | "free" -> Some KFREE
  | "alloc" -> Some KALLOC
  | "balloc" -> Some KBALLOC
  | "input" -> Some KINPUT
  | "global" -> Some KGLOBAL
  | _ -> None

let token_name = function
  | INT n -> Printf.sprintf "integer %d" n
  | IDENT s -> Printf.sprintf "identifier '%s'" s
  | KFN -> "'fn'" | KVAR -> "'var'" | KIF -> "'if'" | KELSE -> "'else'"
  | KWHILE -> "'while'" | KFOR -> "'for'" | KIN -> "'in'"
  | KRETURN -> "'return'" | KPRINT -> "'print'" | KFREE -> "'free'"
  | KALLOC -> "'alloc'" | KBALLOC -> "'balloc'" | KINPUT -> "'input'"
  | KGLOBAL -> "'global'"
  | LPAREN -> "'('" | RPAREN -> "')'" | LBRACE -> "'{'" | RBRACE -> "'}'"
  | LBRACK -> "'['" | RBRACK -> "']'" | DOTBRACK -> "'.['"
  | COMMA -> "','" | SEMI -> "';'" | ASSIGN -> "'='" | DOTDOT -> "'..'"
  | PLUS -> "'+'" | MINUS -> "'-'" | STAR -> "'*'" | SLASH -> "'/'"
  | PERCENT -> "'%'" | AMP -> "'&'" | PIPE -> "'|'" | CARET -> "'^'"
  | TILDE -> "'~'" | SHL -> "'<<'" | SHR -> "'>>'"
  | EQ -> "'=='" | NE -> "'!='" | LT -> "'<'" | LE -> "'<='"
  | GT -> "'>'" | GE -> "'>='" | ANDAND -> "'&&'" | OROR -> "'||'"
  | EOF -> "end of input"

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_alpha c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_alnum c = is_alpha c || is_digit c

(** Tokenize a whole source string. *)
let tokenize (src : string) : t list =
  let n = String.length src in
  let line = ref 1 and bol = ref 0 in
  let pos i = { line = !line; col = i - !bol + 1 } in
  let toks = ref [] in
  let emit tok p = toks := { tok; pos = p } :: !toks in
  (* a literal must fit an int: int_of_string would wrap
     0x7fffffffffffffff to -1 and raise Failure on longer ones *)
  let literal decode ~prefix i j p =
    match decode (String.sub src (i + prefix) (j - i - prefix)) with
    | Some v -> v
    | None ->
      raise
        (Lex_error
           ( Printf.sprintf "integer literal %s does not fit an int"
               (String.sub src i (j - i)),
             p ))
  in
  let rec go i =
    if i >= n then emit EOF (pos i)
    else
      let c = src.[i] in
      let p = pos i in
      match c with
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '\n' ->
        incr line;
        bol := i + 1;
        go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
        let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
        go (skip (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
        let rec skip j =
          if j + 1 >= n then raise (Lex_error ("unterminated comment", p))
          else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
          else begin
            if src.[j] = '\n' then begin incr line; bol := j + 1 end;
            skip (j + 1)
          end
        in
        go (skip (i + 2))
      | '0' when i + 1 < n && (src.[i + 1] = 'x' || src.[i + 1] = 'X') ->
        let rec scan j = if j < n && is_hex src.[j] then scan (j + 1) else j in
        let j = scan (i + 2) in
        if j = i + 2 then raise (Lex_error ("bad hex literal", p));
        emit (INT (literal Binfmt.Reader.hex_opt ~prefix:2 i j p)) p;
        go j
      | c when is_digit c ->
        let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
        let j = scan i in
        emit (INT (literal Binfmt.Reader.dec_opt ~prefix:0 i j p)) p;
        go j
      | c when is_alpha c ->
        let rec scan j = if j < n && is_alnum src.[j] then scan (j + 1) else j in
        let j = scan i in
        let word = String.sub src i (j - i) in
        emit (match keyword word with Some k -> k | None -> IDENT word) p;
        go j
      | '.' when i + 1 < n && src.[i + 1] = '[' ->
        emit DOTBRACK p;
        go (i + 2)
      | '.' when i + 1 < n && src.[i + 1] = '.' ->
        emit DOTDOT p;
        go (i + 2)
      | '(' -> emit LPAREN p; go (i + 1)
      | ')' -> emit RPAREN p; go (i + 1)
      | '{' -> emit LBRACE p; go (i + 1)
      | '}' -> emit RBRACE p; go (i + 1)
      | '[' -> emit LBRACK p; go (i + 1)
      | ']' -> emit RBRACK p; go (i + 1)
      | ',' -> emit COMMA p; go (i + 1)
      | ';' -> emit SEMI p; go (i + 1)
      | '+' -> emit PLUS p; go (i + 1)
      | '-' -> emit MINUS p; go (i + 1)
      | '*' -> emit STAR p; go (i + 1)
      | '/' -> emit SLASH p; go (i + 1)
      | '%' -> emit PERCENT p; go (i + 1)
      | '~' -> emit TILDE p; go (i + 1)
      | '^' -> emit CARET p; go (i + 1)
      | '&' when i + 1 < n && src.[i + 1] = '&' -> emit ANDAND p; go (i + 2)
      | '&' -> emit AMP p; go (i + 1)
      | '|' when i + 1 < n && src.[i + 1] = '|' -> emit OROR p; go (i + 2)
      | '|' -> emit PIPE p; go (i + 1)
      | '<' when i + 1 < n && src.[i + 1] = '<' -> emit SHL p; go (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' -> emit LE p; go (i + 2)
      | '<' -> emit LT p; go (i + 1)
      | '>' when i + 1 < n && src.[i + 1] = '>' -> emit SHR p; go (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '=' -> emit GE p; go (i + 2)
      | '>' -> emit GT p; go (i + 1)
      | '=' when i + 1 < n && src.[i + 1] = '=' -> emit EQ p; go (i + 2)
      | '=' -> emit ASSIGN p; go (i + 1)
      | '!' when i + 1 < n && src.[i + 1] = '=' -> emit NE p; go (i + 2)
      | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, p))
  in
  go 0;
  List.rev !toks
