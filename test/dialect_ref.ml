(* Test-only reference dialect checker: [Dialect.check] as it was before
   one walk per function fed every dialect.  It re-walks each function
   once per restricted construct, per dialect, per call.  The
   differential tests in test_front.ml hold the production checker to
   identical violations (rule, where, vloc, order) against this one. *)

open Dialect

let pointer_expr (e : Ast.expr) =
  match e.e with
  | Ast.Deref _ | Ast.Addr_of _ -> true
  | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
  | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Cast _ | Ast.Chan_recv _ ->
    false

let rec uses_pointer_type = function
  | Ctypes.Pointer _ -> true
  | Ctypes.Array (t, _) -> uses_pointer_type t
  | Ctypes.Function { ret; params } ->
    uses_pointer_type ret || List.exists uses_pointer_type params
  | Ctypes.Void | Ctypes.Integer _ -> false

(* Direct or mutual recursion via the static call graph. *)
let recursive_functions (p : Ast.program) =
  let calls f =
    let acc = ref [] in
    Ast.iter_func
      ~stmt:(fun _ -> ())
      ~expr:(fun e ->
        match e.Ast.e with
        | Ast.Call (name, _) -> acc := name :: !acc
        | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
        | Ast.Cond _ | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _ | Ast.Cast _
        | Ast.Chan_recv _ -> ())
      f;
    !acc
  in
  let reaches =
    Hashtbl.create 16 (* function -> set of functions reachable *)
  in
  List.iter (fun f -> Hashtbl.replace reaches f.Ast.f_name (calls f)) p.funcs;
  let rec reachable_from seen name =
    if List.mem name seen then seen
    else
      let direct =
        match Hashtbl.find_opt reaches name with Some l -> l | None -> []
      in
      List.fold_left reachable_from (name :: seen) direct
  in
  List.filter
    (fun f ->
      let self = f.Ast.f_name in
      let direct =
        match Hashtbl.find_opt reaches self with Some l -> l | None -> []
      in
      List.exists (fun callee -> List.mem self (reachable_from [] callee))
        direct)
    p.funcs
  |> List.map (fun f -> f.Ast.f_name)

(** Check a (type-checked) program against a dialect's restrictions.
    Returns the list of violations; empty means the program is legal. *)
(* First statement/expression of [f] satisfying [pred], so a violation
   can carry the offending location rather than just the function name. *)
let first_stmt pred f =
  let found = ref None in
  Ast.iter_func
    ~stmt:(fun s -> if !found = None && pred s then found := Some s)
    ~expr:(fun _ -> ())
    f;
  !found

let first_expr pred f =
  let found = ref None in
  Ast.iter_func
    ~stmt:(fun _ -> ())
    ~expr:(fun e -> if !found = None && pred e then found := Some e)
    f;
  !found

let check dialect (p : Ast.program) : violation list =
  let violations = ref [] in
  let add ?(loc = Ast.no_loc) rule where =
    violations := { rule; where; vloc = loc } :: !violations
  in
  let check_func (f : Ast.func) =
    let where = f.Ast.f_name in
    (* one violation per (rule, function), located at the first offender *)
    let stmt_rule pred rule =
      match first_stmt pred f with
      | Some st -> add ~loc:st.Ast.sloc rule where
      | None -> ()
    in
    if not dialect.allows_pointers then begin
      (match first_expr pointer_expr f with
      | Some e ->
        add ~loc:e.Ast.eloc (dialect.name ^ " forbids pointer operations")
          where
      | None -> ());
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Decl (ty, _, _) -> uses_pointer_type ty
          | Ast.Expr _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Par _ | Ast.Chan_send _ | Ast.Delay | Ast.Constrain _ ->
            false)
        (dialect.name ^ " forbids pointer-typed variables")
    end;
    if not dialect.allows_unbounded_loops then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.While _ | Ast.Do_while _ -> true
          | Ast.For (init, cond, step, _) ->
            (* Bounded form: for (int i = c0; i <relop> c1; i = i +/- c2) *)
            not (Loopform.is_statically_bounded ~init ~cond ~step)
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.Return _ | Ast.Break
          | Ast.Continue | Ast.Block _ | Ast.Par _ | Ast.Chan_send _
          | Ast.Delay | Ast.Constrain _ -> false)
        (dialect.name ^ " requires statically bounded loops");
    if not dialect.allows_par then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Par _ -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Chan_send _ | Ast.Delay | Ast.Constrain _ -> false)
        (dialect.name ^ " has no parallel construct");
    if not dialect.allows_channels then begin
      let uses_chan_stmt (st : Ast.stmt) =
        match st.Ast.s with
        | Ast.Chan_send _ -> true
        | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
        | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
        | Ast.Par _ | Ast.Delay | Ast.Constrain _ -> false
      and uses_chan_expr (e : Ast.expr) =
        match e.Ast.e with
        | Ast.Chan_recv _ -> true
        | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
        | Ast.Cond _ | Ast.Call _ | Ast.Index _ | Ast.Deref _ | Ast.Addr_of _
        | Ast.Cast _ -> false
      in
      match (first_stmt uses_chan_stmt f, first_expr uses_chan_expr f) with
      | Some st, _ ->
        add ~loc:st.Ast.sloc (dialect.name ^ " has no channels") where
      | None, Some e ->
        add ~loc:e.Ast.eloc (dialect.name ^ " has no channels") where
      | None, None -> ()
    end;
    if not dialect.allows_constrain then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Constrain _ -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Par _ | Ast.Chan_send _ | Ast.Delay -> false)
        (dialect.name ^ " has no timing constraints");
    if not dialect.allows_delay then
      stmt_rule
        (fun st ->
          match st.Ast.s with
          | Ast.Delay -> true
          | Ast.Expr _ | Ast.Decl _ | Ast.If _ | Ast.While _ | Ast.Do_while _
          | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _
          | Ast.Par _ | Ast.Chan_send _ | Ast.Constrain _ -> false)
        (dialect.name ^ " has no delay statement")
  in
  List.iter check_func p.funcs;
  if not dialect.allows_pointers then
    List.iter
      (fun (g : Ast.global) ->
        if uses_pointer_type g.Ast.g_ty then
          add (dialect.name ^ " forbids pointer-typed globals") g.Ast.g_name)
      p.globals;
  if not dialect.allows_recursion then
    List.iter
      (fun name -> add (dialect.name ^ " forbids recursion") name)
      (recursive_functions p);
  List.rev !violations
