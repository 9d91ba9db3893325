(* Hand-written lexer for the CHLS C-like language. *)

type token =
  | INT of int64 * [ `Plain | `Unsigned | `Long | `Unsigned_long ]
  | ID of string
  | KW of string
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | LSHIFT | RSHIFT
  | EQEQ | NEQ | LT | LE | GT | GE
  | ANDAND | OROR
  | ASSIGN
  | OP_ASSIGN of string (* "+=", "-=", ... desugared by the parser *)
  | PLUSPLUS | MINUSMINUS
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | QUESTION | COLON
  | EOF

type tok = { t : token; tline : int; tcol : int }

exception Error of string * Ast.loc

let keywords =
  [ "void"; "bool"; "_Bool"; "char"; "short"; "int"; "long"; "unsigned";
    "signed"; "if"; "else"; "while"; "do"; "for"; "return"; "break";
    "continue"; "par"; "send"; "recv"; "delay"; "constrain"; "chan"; "true";
    "false" ]

(* Lookup table over [keywords], so classifying an identifier is one
   hash rather than a scan of the list. *)
let keyword_table =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k ()) keywords;
  t

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let loc st : Ast.loc = { line = st.line; col = st.pos - st.bol + 1 }

(* Character access allocates nothing: past the end, [peek] and [peek2]
   read as '\000', which no token pattern names; a NUL inside the source
   is told apart from the end by [at_end]. *)
let at_end st = st.pos >= String.length st.src
let peek st = if st.pos < String.length st.src then st.src.[st.pos] else '\000'

let peek2 st =
  if st.pos + 1 < String.length st.src then st.src.[st.pos + 1] else '\000'

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let rec skip_trivia st =
  if not (at_end st) then
    match (peek st, peek2 st) with
    | (' ' | '\t' | '\r' | '\n'), _ ->
      advance st;
      skip_trivia st
    | '/', '/' ->
      while (not (at_end st)) && peek st <> '\n' do
        advance st
      done;
      skip_trivia st
    | '/', '*' ->
      advance st;
      advance st;
      let rec close () =
        if at_end st then raise (Error ("unterminated comment", loc st));
        match (peek st, peek2 st) with
        | '*', '/' ->
          advance st;
          advance st
        | _ ->
          advance st;
          close ()
      in
      close ();
      skip_trivia st
    | _ -> ()

let lex_number st =
  let start = st.pos in
  let hex = peek st = '0' && (peek2 st = 'x' || peek2 st = 'X') in
  if hex then begin
    advance st;
    advance st;
    while is_hex_digit (peek st) do
      advance st
    done
  end
  else
    while is_digit (peek st) do
      advance st
    done;
  let digits = String.sub st.src start (st.pos - start) in
  let value = Int64.of_string digits in
  let suffix = ref `Plain in
  let rec suffixes () =
    match peek st with
    | 'u' | 'U' ->
      advance st;
      suffix :=
        (match !suffix with
        | `Plain -> `Unsigned
        | `Long | `Unsigned_long -> `Unsigned_long
        | `Unsigned -> `Unsigned);
      suffixes ()
    | 'l' | 'L' ->
      advance st;
      suffix :=
        (match !suffix with
        | `Plain -> `Long
        | `Unsigned | `Unsigned_long -> `Unsigned_long
        | `Long -> `Long);
      suffixes ()
    | _ -> ()
  in
  suffixes ();
  INT (value, !suffix)

let lex_char_literal st =
  advance st; (* opening quote *)
  let unterminated () = raise (Error ("unterminated char literal", loc st)) in
  if at_end st then unterminated ();
  let c =
    match peek st with
    | '\\' -> (
      advance st;
      if at_end st then unterminated ();
      match peek st with
      | 'n' -> '\n'
      | 't' -> '\t'
      | 'r' -> '\r'
      | '0' -> '\000'
      | c -> c)
    | c -> c
  in
  advance st;
  if peek st = '\'' then advance st else unterminated ();
  INT (Int64.of_int (Char.code c), `Plain)

let two st tok =
  advance st;
  advance st;
  tok

let one st tok =
  advance st;
  tok

let lex_token st =
  skip_trivia st;
  let line = st.line and col = st.pos - st.bol + 1 in
  let token =
    if at_end st then EOF
    else
      match (peek st, peek2 st) with
      | '\'', _ -> lex_char_literal st
      | c, _ when is_digit c -> lex_number st
      | c, _ when is_ident_start c ->
        let start = st.pos in
        while is_ident_char (peek st) do
          advance st
        done;
        let name = String.sub st.src start (st.pos - start) in
        if Hashtbl.mem keyword_table name then KW name else ID name
      | '+', '+' -> two st PLUSPLUS
      | '-', '-' -> two st MINUSMINUS
      | '+', '=' -> two st (OP_ASSIGN "+")
      | '-', '=' -> two st (OP_ASSIGN "-")
      | '*', '=' -> two st (OP_ASSIGN "*")
      | '/', '=' -> two st (OP_ASSIGN "/")
      | '%', '=' -> two st (OP_ASSIGN "%")
      | '&', '=' -> two st (OP_ASSIGN "&")
      | '|', '=' -> two st (OP_ASSIGN "|")
      | '^', '=' -> two st (OP_ASSIGN "^")
      | '<', '<' ->
        advance st;
        advance st;
        if peek st = '=' then one st (OP_ASSIGN "<<") else LSHIFT
      | '>', '>' ->
        advance st;
        advance st;
        if peek st = '=' then one st (OP_ASSIGN ">>") else RSHIFT
      | '=', '=' -> two st EQEQ
      | '!', '=' -> two st NEQ
      | '<', '=' -> two st LE
      | '>', '=' -> two st GE
      | '&', '&' -> two st ANDAND
      | '|', '|' -> two st OROR
      | '+', _ -> one st PLUS
      | '-', _ -> one st MINUS
      | '*', _ -> one st STAR
      | '/', _ -> one st SLASH
      | '%', _ -> one st PERCENT
      | '&', _ -> one st AMP
      | '|', _ -> one st PIPE
      | '^', _ -> one st CARET
      | '~', _ -> one st TILDE
      | '!', _ -> one st BANG
      | '<', _ -> one st LT
      | '>', _ -> one st GT
      | '=', _ -> one st ASSIGN
      | '(', _ -> one st LPAREN
      | ')', _ -> one st RPAREN
      | '{', _ -> one st LBRACE
      | '}', _ -> one st RBRACE
      | '[', _ -> one st LBRACKET
      | ']', _ -> one st RBRACKET
      | ';', _ -> one st SEMI
      | ',', _ -> one st COMMA
      | '?', _ -> one st QUESTION
      | ':', _ -> one st COLON
      | c, _ ->
        raise
          (Error
             (Printf.sprintf "unexpected character %C" c, { Ast.line; col }))
  in
  { t = token; tline = line; tcol = col }

(** Tokenize a complete source string (the trailing token is [EOF]). *)
let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let tok = lex_token st in
    match tok.t with EOF -> List.rev (tok :: acc) | _ -> go (tok :: acc)
  in
  go []
