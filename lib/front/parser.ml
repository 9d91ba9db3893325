(* Recursive-descent parser for the CHLS C-like language.

   Standard C expression grammar (precedence climbing), C89-style
   declarations restricted to what the surveyed languages need, plus the
   hardware-extension statements.  Compound assignments and ++/-- are
   desugared to plain assignments here; their value, when used as an
   expression, follows the pre-increment convention (documented in README). *)

exception Error of string * Ast.loc

type state = { toks : Lexer.tok array; mutable pos : int }

let cur st = st.toks.(st.pos)
let cur_loc st : Ast.loc = { line = (cur st).tline; col = (cur st).tcol }
let peek_token st = (cur st).t

let peek_token2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).t
  else Lexer.EOF

let advance st = if st.pos + 1 < Array.length st.toks then st.pos <- st.pos + 1

let fail st msg = raise (Error (msg, cur_loc st))

let expect st token msg =
  if peek_token st = token then advance st else fail st ("expected " ^ msg)

let expect_ident st =
  match peek_token st with
  | Lexer.ID name ->
    advance st;
    name
  | _ -> fail st "expected identifier"

(* --- types --- *)

let type_keyword = function
  | "void" | "bool" | "_Bool" | "char" | "short" | "int" | "long"
  | "unsigned" | "signed" -> true
  | _ -> false

let starts_type st =
  match peek_token st with Lexer.KW kw -> type_keyword kw | _ -> false

(** Parse a base type specifier: sequences like [unsigned long]. *)
let parse_base_type st =
  let signedness = ref None and kind = ref None and void = ref false in
  let rec go () =
    match peek_token st with
    | Lexer.KW "void" -> advance st; void := true; go ()
    | Lexer.KW ("bool" | "_Bool") ->
      advance st;
      kind := Some Ctypes.Bool;
      go ()
    | Lexer.KW "char" -> advance st; kind := Some Ctypes.Char; go ()
    | Lexer.KW "short" -> advance st; kind := Some Ctypes.Short; go ()
    | Lexer.KW "int" ->
      advance st;
      if !kind = None then kind := Some Ctypes.Int;
      go ()
    | Lexer.KW "long" -> advance st; kind := Some Ctypes.Long; go ()
    | Lexer.KW "unsigned" -> advance st; signedness := Some false; go ()
    | Lexer.KW "signed" -> advance st; signedness := Some true; go ()
    | _ -> ()
  in
  go ();
  if !void then Ctypes.Void
  else
    match !kind, !signedness with
    | None, None -> fail st "expected type"
    | None, Some s -> Ctypes.Integer { kind = Ctypes.Int; signed = s }
    | Some Ctypes.Bool, _ -> Ctypes.bool_t
    | Some k, s ->
      Ctypes.Integer { kind = k; signed = Option.value s ~default:true }

(** Base type plus pointer stars: the part of a declaration before the
    declarator name. *)
let parse_type_prefix st =
  let base = parse_base_type st in
  let rec stars t =
    if peek_token st = Lexer.STAR then begin
      advance st;
      stars (Ctypes.Pointer t)
    end
    else t
  in
  stars base

(* --- expressions --- *)

let rec parse_expr st = parse_assignment st

and parse_assignment st =
  let loc = cur_loc st in
  let lhs = parse_conditional st in
  match peek_token st with
  | Lexer.ASSIGN ->
    advance st;
    let rhs = parse_assignment st in
    Ast.mk_expr ~loc (Ast.Assign (lhs, rhs))
  | Lexer.OP_ASSIGN op ->
    advance st;
    let rhs = parse_assignment st in
    let bop =
      match op with
      | "+" -> Ast.Add | "-" -> Ast.Sub | "*" -> Ast.Mul | "/" -> Ast.Div
      | "%" -> Ast.Mod | "&" -> Ast.Band | "|" -> Ast.Bor | "^" -> Ast.Bxor
      | "<<" -> Ast.Shl | ">>" -> Ast.Shr
      | _ -> fail st "bad compound assignment"
    in
    Ast.mk_expr ~loc (Ast.Assign (lhs, Ast.mk_expr ~loc (Ast.Binop (bop, lhs, rhs))))
  | _ -> lhs

and parse_conditional st =
  let loc = cur_loc st in
  let cond = parse_binary st 0 in
  if peek_token st = Lexer.QUESTION then begin
    advance st;
    let then_e = parse_expr st in
    expect st Lexer.COLON "':'";
    let else_e = parse_conditional st in
    Ast.mk_expr ~loc (Ast.Cond (cond, then_e, else_e))
  end
  else cond

(* Binary operators by precedence level, loosest first. *)
and binop_at_level level token =
  match (level, token) with
  | 0, Lexer.OROR -> Some Ast.Log_or
  | 1, Lexer.ANDAND -> Some Ast.Log_and
  | 2, Lexer.PIPE -> Some Ast.Bor
  | 3, Lexer.CARET -> Some Ast.Bxor
  | 4, Lexer.AMP -> Some Ast.Band
  | 5, Lexer.EQEQ -> Some Ast.Eq
  | 5, Lexer.NEQ -> Some Ast.Ne
  | 6, Lexer.LT -> Some Ast.Lt
  | 6, Lexer.LE -> Some Ast.Le
  | 6, Lexer.GT -> Some Ast.Gt
  | 6, Lexer.GE -> Some Ast.Ge
  | 7, Lexer.LSHIFT -> Some Ast.Shl
  | 7, Lexer.RSHIFT -> Some Ast.Shr
  | 8, Lexer.PLUS -> Some Ast.Add
  | 8, Lexer.MINUS -> Some Ast.Sub
  | 9, Lexer.STAR -> Some Ast.Mul
  | 9, Lexer.SLASH -> Some Ast.Div
  | 9, Lexer.PERCENT -> Some Ast.Mod
  | _ -> None

and parse_binary st level =
  if level > 9 then parse_unary st
  else begin
    let loc = cur_loc st in
    let lhs = ref (parse_binary st (level + 1)) in
    let continue = ref true in
    while !continue do
      match binop_at_level level (peek_token st) with
      | Some op ->
        advance st;
        let rhs = parse_binary st (level + 1) in
        lhs := Ast.mk_expr ~loc (Ast.Binop (op, !lhs, rhs))
      | None -> continue := false
    done;
    !lhs
  end

and parse_unary st =
  let loc = cur_loc st in
  match peek_token st with
  | Lexer.MINUS ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Neg, parse_unary st))
  | Lexer.TILDE ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Bit_not, parse_unary st))
  | Lexer.BANG ->
    advance st;
    Ast.mk_expr ~loc (Ast.Unop (Ast.Log_not, parse_unary st))
  | Lexer.STAR ->
    advance st;
    Ast.mk_expr ~loc (Ast.Deref (parse_unary st))
  | Lexer.AMP ->
    advance st;
    Ast.mk_expr ~loc (Ast.Addr_of (parse_unary st))
  | Lexer.PLUSPLUS ->
    advance st;
    let e = parse_unary st in
    incr_expr ~loc e Ast.Add
  | Lexer.MINUSMINUS ->
    advance st;
    let e = parse_unary st in
    incr_expr ~loc e Ast.Sub
  | Lexer.LPAREN
    when match peek_token2 st with
         | Lexer.KW kw -> type_keyword kw
         | _ -> false ->
    advance st;
    let ty = parse_type_prefix st in
    expect st Lexer.RPAREN "')'";
    Ast.mk_expr ~loc (Ast.Cast (ty, parse_unary st))
  | _ -> parse_postfix st

and incr_expr ~loc e op =
  let one = Ast.mk_expr ~loc (Ast.Const (1L, Ctypes.int_t)) in
  Ast.mk_expr ~loc (Ast.Assign (e, Ast.mk_expr ~loc (Ast.Binop (op, e, one))))

and parse_postfix st =
  let base = parse_primary st in
  let rec go e =
    let loc = cur_loc st in
    match peek_token st with
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET "']'";
      go (Ast.mk_expr ~loc (Ast.Index (e, idx)))
    | Lexer.PLUSPLUS ->
      advance st;
      go (incr_expr ~loc e Ast.Add)
    | Lexer.MINUSMINUS ->
      advance st;
      go (incr_expr ~loc e Ast.Sub)
    | _ -> e
  in
  go base

and parse_primary st =
  let loc = cur_loc st in
  match peek_token st with
  | Lexer.INT (v, suffix) ->
    advance st;
    let ty =
      match suffix with
      | `Unsigned -> Ctypes.uint_t
      | `Long -> Ctypes.long_t
      | `Unsigned_long -> Ctypes.ulong_t
      | `Plain ->
        if Int64.compare v (Int64.of_int32 Int32.max_int) <= 0 then
          Ctypes.int_t
        else Ctypes.long_t
    in
    Ast.mk_expr ~loc (Ast.Const (v, ty))
  | Lexer.KW "true" ->
    advance st;
    Ast.mk_expr ~loc (Ast.Const (1L, Ctypes.bool_t))
  | Lexer.KW "false" ->
    advance st;
    Ast.mk_expr ~loc (Ast.Const (0L, Ctypes.bool_t))
  | Lexer.KW "recv" ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let ch = expect_ident st in
    expect st Lexer.RPAREN "')'";
    Ast.mk_expr ~loc (Ast.Chan_recv ch)
  | Lexer.ID name ->
    advance st;
    if peek_token st = Lexer.LPAREN then begin
      advance st;
      let args = ref [] in
      if peek_token st <> Lexer.RPAREN then begin
        args := [ parse_expr st ];
        while peek_token st = Lexer.COMMA do
          advance st;
          args := parse_expr st :: !args
        done
      end;
      expect st Lexer.RPAREN "')'";
      Ast.mk_expr ~loc (Ast.Call (name, List.rev !args))
    end
    else Ast.mk_expr ~loc (Ast.Var name)
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN "')'";
    e
  | _ -> fail st "expected expression"

(* --- statements --- *)

let parse_int_literal st =
  match peek_token st with
  | Lexer.INT (v, _) ->
    advance st;
    Int64.to_int v
  | Lexer.MINUS ->
    advance st;
    (match peek_token st with
    | Lexer.INT (v, _) ->
      advance st;
      -Int64.to_int v
    | _ -> fail st "expected integer literal")
  | _ -> fail st "expected integer literal"

let rec parse_stmt st =
  let loc = cur_loc st in
  match peek_token st with
  | Lexer.LBRACE -> Ast.mk_stmt ~loc (Ast.Block (parse_block st))
  | Lexer.KW "if" ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "')'";
    let then_b = parse_stmt_as_block st in
    let else_b =
      if peek_token st = Lexer.KW "else" then begin
        advance st;
        parse_stmt_as_block st
      end
      else []
    in
    Ast.mk_stmt ~loc (Ast.If (cond, then_b, else_b))
  | Lexer.KW "while" ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "')'";
    Ast.mk_stmt ~loc (Ast.While (cond, parse_stmt_as_block st))
  | Lexer.KW "do" ->
    advance st;
    let body = parse_stmt_as_block st in
    expect st (Lexer.KW "while") "'while'";
    expect st Lexer.LPAREN "'('";
    let cond = parse_expr st in
    expect st Lexer.RPAREN "')'";
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc (Ast.Do_while (body, cond))
  | Lexer.KW "for" ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let init =
      if peek_token st = Lexer.SEMI then begin
        advance st;
        None
      end
      else if starts_type st then Some (parse_decl_stmt st)
      else begin
        let e = parse_expr st in
        expect st Lexer.SEMI "';'";
        Some (Ast.mk_stmt ~loc (Ast.Expr e))
      end
    in
    let cond =
      if peek_token st = Lexer.SEMI then None else Some (parse_expr st)
    in
    expect st Lexer.SEMI "';'";
    let step =
      if peek_token st = Lexer.RPAREN then None else Some (parse_expr st)
    in
    expect st Lexer.RPAREN "')'";
    Ast.mk_stmt ~loc (Ast.For (init, cond, step, parse_stmt_as_block st))
  | Lexer.KW "return" ->
    advance st;
    let value =
      if peek_token st = Lexer.SEMI then None else Some (parse_expr st)
    in
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc (Ast.Return value)
  | Lexer.KW "break" ->
    advance st;
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc Ast.Break
  | Lexer.KW "continue" ->
    advance st;
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc Ast.Continue
  | Lexer.KW "delay" ->
    advance st;
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc Ast.Delay
  | Lexer.KW "par" ->
    advance st;
    expect st Lexer.LBRACE "'{'";
    let branches = ref [] in
    while peek_token st <> Lexer.RBRACE do
      branches := parse_stmt_as_block st :: !branches
    done;
    advance st;
    Ast.mk_stmt ~loc (Ast.Par (List.rev !branches))
  | Lexer.KW "send" ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let ch = expect_ident st in
    expect st Lexer.COMMA "','";
    let value = parse_expr st in
    expect st Lexer.RPAREN "')'";
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc (Ast.Chan_send (ch, value))
  | Lexer.KW "constrain" ->
    advance st;
    expect st Lexer.LPAREN "'('";
    let min_cycles = parse_int_literal st in
    expect st Lexer.COMMA "','";
    let max_cycles = parse_int_literal st in
    expect st Lexer.RPAREN "')'";
    let body = parse_stmt_as_block st in
    Ast.mk_stmt ~loc (Ast.Constrain (min_cycles, max_cycles, body))
  | Lexer.KW kw when type_keyword kw -> parse_decl_stmt st
  | Lexer.SEMI ->
    advance st;
    Ast.mk_stmt ~loc (Ast.Block [])
  | _ ->
    let e = parse_expr st in
    expect st Lexer.SEMI "';'";
    Ast.mk_stmt ~loc (Ast.Expr e)

and parse_decl_stmt st =
  let loc = cur_loc st in
  let ty = parse_type_prefix st in
  let name = expect_ident st in
  let ty =
    if peek_token st = Lexer.LBRACKET then begin
      advance st;
      let n = parse_int_literal st in
      expect st Lexer.RBRACKET "']'";
      Ctypes.Array (ty, n)
    end
    else ty
  in
  let init =
    if peek_token st = Lexer.ASSIGN then begin
      advance st;
      Some (parse_expr st)
    end
    else None
  in
  expect st Lexer.SEMI "';'";
  Ast.mk_stmt ~loc (Ast.Decl (ty, name, init))

and parse_block st =
  expect st Lexer.LBRACE "'{'";
  let stmts = ref [] in
  while peek_token st <> Lexer.RBRACE do
    stmts := parse_stmt st :: !stmts
  done;
  advance st;
  List.rev !stmts

and parse_stmt_as_block st =
  if peek_token st = Lexer.LBRACE then parse_block st else [ parse_stmt st ]

(* --- top level --- *)

let parse_initializer_list st =
  expect st Lexer.LBRACE "'{'";
  let values = ref [ Int64.of_int (parse_int_literal st) ] in
  while peek_token st = Lexer.COMMA do
    advance st;
    values := Int64.of_int (parse_int_literal st) :: !values
  done;
  expect st Lexer.RBRACE "'}'";
  List.rev !values

let parse_top_level st (globals, chans, funcs) =
  if peek_token st = Lexer.KW "chan" then begin
    advance st;
    let ty = parse_type_prefix st in
    let name = expect_ident st in
    expect st Lexer.SEMI "';'";
    (globals, { Ast.c_name = name; c_ty = ty } :: chans, funcs)
  end
  else begin
    let ty = parse_type_prefix st in
    let name = expect_ident st in
    match peek_token st with
    | Lexer.LPAREN ->
      advance st;
      let params = ref [] in
      if peek_token st <> Lexer.RPAREN then begin
        (match peek_token st with
        | Lexer.KW "void" when peek_token2 st = Lexer.RPAREN -> advance st
        | _ ->
          let parse_param () =
            let pty = parse_type_prefix st in
            let pname = expect_ident st in
            let pty =
              if peek_token st = Lexer.LBRACKET then begin
                advance st;
                let n =
                  if peek_token st = Lexer.RBRACKET then 0
                  else parse_int_literal st
                in
                expect st Lexer.RBRACKET "']'";
                if n = 0 then Ctypes.Pointer pty else Ctypes.Array (pty, n)
              end
              else pty
            in
            params := (pty, pname) :: !params
          in
          parse_param ();
          while peek_token st = Lexer.COMMA do
            advance st;
            parse_param ()
          done)
      end;
      expect st Lexer.RPAREN "')'";
      if peek_token st = Lexer.SEMI then begin
        (* Forward declaration: recorded nowhere, bodies carry the truth. *)
        advance st;
        (globals, chans, funcs)
      end
      else begin
        let body = parse_block st in
        let func =
          { Ast.f_name = name; f_ret = ty; f_params = List.rev !params;
            f_body = body }
        in
        (globals, chans, func :: funcs)
      end
    | Lexer.LBRACKET ->
      advance st;
      let n = parse_int_literal st in
      expect st Lexer.RBRACKET "']'";
      let init =
        if peek_token st = Lexer.ASSIGN then begin
          advance st;
          Some (parse_initializer_list st)
        end
        else None
      in
      expect st Lexer.SEMI "';'";
      let g =
        { Ast.g_name = name; g_ty = Ctypes.Array (ty, n); g_init = init }
      in
      (g :: globals, chans, funcs)
    | _ ->
      let init =
        if peek_token st = Lexer.ASSIGN then begin
          advance st;
          Some [ Int64.of_int (parse_int_literal st) ]
        end
        else None
      in
      expect st Lexer.SEMI "';'";
      let g = { Ast.g_name = name; g_ty = ty; g_init = init } in
      (g :: globals, chans, funcs)
  end

let start src =
  { toks =
      Arrays.of_list ~fill:{ Lexer.t = Lexer.EOF; tline = 0; tcol = 0 }
        (Lexer.tokenize src);
    pos = 0 }

(** Parse a complete translation unit. *)
let parse_program src =
  let st = start src in
  let rec go acc =
    if peek_token st = Lexer.EOF then acc else go (parse_top_level st acc)
  in
  let globals, chans, funcs = go ([], [], []) in
  { Ast.globals = List.rev globals;
    chans = List.rev chans;
    funcs = List.rev funcs }

(** Parse a single expression (used by tests and the Ocapi examples). *)
let parse_expression src =
  let st = start src in
  let e = parse_expr st in
  if peek_token st <> Lexer.EOF then fail st "trailing tokens";
  e
