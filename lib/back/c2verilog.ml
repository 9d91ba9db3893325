(* C2Verilog backend [Soderman & Panchul, FCCM 1998].

   The paper: "C2Verilog ... has truly broad support for ANSI C.  It can
   translate pointers, recursion, dynamic memory allocation, and other
   thorny C constructs" with cycles inserted by "complex rules".

   Supporting *all* of C — pointers into an undifferentiated address
   space, arbitrary recursion, malloc — forces the generated hardware
   toward a processor-shaped design: a unified memory, a runtime stack,
   and sequentialized execution.  This backend makes that architectural
   consequence explicit: it compiles the whole program to a word stack
   machine (code ROM + unified RAM + small datapath FSM) whose per-
   instruction cycle rules model the "complex rules" knob.  Experiment E9
   compares it against Bach C's partitioned-memory FSMD on the same
   kernels to quantify what the paper's memory-model complaint costs.

   Points-to analysis (ir/pointer.ml) is consulted for the E9 report: if
   every pointer resolves to one region, the memory could be banked. *)

exception Compile_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Compile_error m)) fmt

(* --- the instruction set --- *)

type instr =
  | Push of int64
  | Push_global_addr of int (* absolute word address *)
  | Push_frame_addr of int (* FP + offset *)
  | Load (* pop addr, push mem[addr] *)
  | Store (* pop value, pop addr *)
  | Bin of Netlist.binop * int (* op then truncate to width *)
  | Un of Netlist.unop * int
  | Cast of { signed : bool; from_width : int; to_width : int }
  | Dup
  | Drop
  | Jump of int
  | Jump_if_zero of int
  | Call of int * int (* target pc, argument words *)
  | Enter of int (* allocate this many local words *)
  | Ret of { args : int; has_value : bool }
  | Alloc (* pop word count, push heap address *)
  | Halt of { has_value : bool }

let cycles_of_instr = function
  | Push _ | Push_global_addr _ | Push_frame_addr _ | Dup | Drop -> 1
  | Load | Store -> 2 (* unified memory access *)
  | Bin ((Netlist.B_mul), _) -> 2
  | Bin ((Netlist.B_udiv | Netlist.B_urem | Netlist.B_sdiv | Netlist.B_srem), _)
    -> 8
  | Bin _ | Un _ | Cast _ -> 1
  | Jump _ | Jump_if_zero _ -> 1
  | Call _ | Ret _ | Enter _ -> 2
  | Alloc -> 2
  | Halt _ -> 1

(* --- compilation --- *)

type var_binding = { offset : int; is_global : bool; ty : Ctypes.t }

type fn_info = {
  mutable address : int;
  arg_words : int;
  local_layout : (string, var_binding) Hashtbl.t;
  frame_words : int;
}

type compiler = {
  program : Ast.program;
  mutable code : instr list; (* reversed *)
  mutable pc : int;
  functions : (string, fn_info) Hashtbl.t;
  globals_layout : (string, var_binding) Hashtbl.t;
  mutable global_words : int;
  mutable fixups : (int * string) list; (* code index -> function name *)
  mutable loop_stack : (int ref list * int ref list) list;
    (* (break fixups, continue fixups) — patched when targets known *)
  mutable pending_jumps : (int * int ref) list; (* code index -> target cell *)
  mutable frame_fixups : (int * int) list; (* Enter's code index -> locals *)
}

let emit c instr =
  c.code <- instr :: c.code;
  c.pc <- c.pc + 1

let emit_jump c make_instr target_cell =
  let index = c.pc in
  emit c (make_instr 0);
  c.pending_jumps <- (index, target_cell) :: c.pending_jumps;
  index

let width_of ty = max 1 (Ctypes.width ty)

(* Frame layout (word offsets relative to FP):
     FP-2-n .. FP-3 : arguments (first arg lowest)
     FP-2           : return pc
     FP-1           : saved FP
     FP+0 ..        : locals (scalars and arrays, allocated statically) *)

(* First pass over a function body: assign every local a frame slot.
   C scoping is approximated by unique slots per (name, textual order);
   shadowing in disjoint blocks wastes slots but stays correct because we
   resolve names during the second pass with a scope stack. *)

type scope_entry = { name : string; binding : var_binding }

let compile_function c (f : Ast.func) (info : fn_info) =
  info.address <- c.pc;
  let scope_stack : scope_entry list ref list ref = ref [ ref [] ] in
  let push_scope () = scope_stack := ref [] :: !scope_stack in
  let pop_scope () = scope_stack := List.tl !scope_stack in
  let bind_local name binding =
    match !scope_stack with
    | top :: _ -> top := { name; binding } :: !top
    | [] -> error "no scope"
  in
  let next_local = ref 0 in
  let alloc_local words =
    let offset = !next_local in
    next_local := !next_local + words;
    offset
  in
  let lookup name =
    let rec in_scopes = function
      | [] -> None
      | scope :: rest -> (
        match
          List.find_opt (fun e -> String.equal e.name name) !scope
        with
        | Some e -> Some e.binding
        | None -> in_scopes rest)
    in
    match in_scopes !scope_stack with
    | Some b -> Some b
    | None -> Hashtbl.find_opt c.globals_layout name
  in
  (* parameters *)
  let nargs = List.length f.Ast.f_params in
  List.iteri
    (fun i (ty, name) ->
      let ty =
        match ty with Ctypes.Array (elt, _) -> Ctypes.Pointer elt | t -> t
      in
      bind_local name
        { offset = -(2 + nargs) + i; is_global = false; ty })
    f.Ast.f_params;
  let enter_index = c.pc in
  emit c (Enter 0) (* patched once frame size is known *);
  let rec push_lvalue_address (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Var name -> (
      match lookup name with
      | Some b -> (
        match b.ty with
        | Ctypes.Array _ | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Void
        | Ctypes.Function _ ->
          if b.is_global then emit c (Push_global_addr b.offset)
          else emit c (Push_frame_addr b.offset))
      | None -> error "unbound %s" name)
    | Ast.Deref p -> push_expr p
    | Ast.Index (base, idx) ->
      let elt_ty =
        match Ctypes.decay base.Ast.ty with
        | Ctypes.Pointer elt -> elt
        | _ -> error "indexing non-pointer"
      in
      push_array_base base;
      push_expr idx;
      (match max 1 (Ctypes.word_count elt_ty) with
      | 1 -> ()
      | scale ->
        emit c (Push (Int64.of_int scale));
        emit c (Bin (Netlist.B_mul, 32)));
      emit c (Cast { signed = true; from_width = 32; to_width = 32 });
      emit c (Bin (Netlist.B_add, 32))
    | _ -> error "not an lvalue"
  and push_array_base (e : Ast.expr) =
    (* the address value of an array-typed expression *)
    match e.Ast.ty with
    | Ctypes.Array _ -> push_lvalue_address e
    | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Function _
      -> push_expr e
  and push_expr (e : Ast.expr) =
    match e.Ast.e with
    | Ast.Const (v, ty) ->
      emit c (Push (Bitvec.to_int64_unsigned (Bitvec.of_int64 ~width:(width_of ty) v)))
    | Ast.Var name -> (
      match lookup name with
      | Some b -> (
        match b.ty with
        | Ctypes.Array _ ->
          (* array decays to its address *)
          if b.is_global then emit c (Push_global_addr b.offset)
          else emit c (Push_frame_addr b.offset)
        | Ctypes.Integer _ | Ctypes.Pointer _ | Ctypes.Void
        | Ctypes.Function _ ->
          push_lvalue_address e;
          emit c Load)
      | None -> error "unbound %s" name)
    | Ast.Unop (Ast.Log_not, a) ->
      push_expr a;
      emit c (Push 0L);
      emit c (Bin (Netlist.B_eq, width_of e.Ast.ty))
    | Ast.Unop (op, a) ->
      push_expr a;
      emit c
        (Un
           ( (match op with
             | Ast.Neg -> Netlist.U_neg
             | Ast.Bit_not -> Netlist.U_not
             | Ast.Log_not ->
               error
                 "internal: !e must be emitted as a == 0 comparison, \
                  not a unary opcode"),
             width_of e.Ast.ty ))
    | Ast.Binop ((Ast.Log_and | Ast.Log_or) as op, a, b) ->
      (* short-circuit via jumps *)
      let end_cell = ref 0 in
      push_expr a;
      emit c (Push 0L);
      emit c (Bin (Netlist.B_ne, width_of a.Ast.ty));
      emit c Dup;
      (match op with
      | Ast.Log_and ->
        (* if lhs false, result is the 0 on the stack *)
        ignore (emit_jump c (fun t -> Jump_if_zero t) end_cell);
        emit c Drop;
        push_expr b;
        emit c (Push 0L);
        emit c (Bin (Netlist.B_ne, width_of b.Ast.ty))
      | Ast.Log_or ->
        let rhs_cell = ref 0 in
        ignore (emit_jump c (fun t -> Jump_if_zero t) rhs_cell);
        (* lhs true: result is the 1 on the stack *)
        ignore (emit_jump c (fun t -> Jump t) end_cell);
        rhs_cell := c.pc;
        emit c Drop;
        push_expr b;
        emit c (Push 0L);
        emit c (Bin (Netlist.B_ne, width_of b.Ast.ty))
      | _ ->
        error
          "internal: short-circuit emission reached with a non-logical \
           operator");
      end_cell := c.pc
    | Ast.Binop (op, a, b) -> push_binop e op a b
    | Ast.Assign (lhs, rhs) ->
      (* value of an assignment: store then reload the lvalue *)
      push_lvalue_address lhs;
      emit c Dup;
      push_expr rhs;
      emit c Store;
      emit c Load
    | Ast.Cond (cond, t, f) ->
      let else_cell = ref 0 and end_cell = ref 0 in
      push_expr cond;
      ignore (emit_jump c (fun x -> Jump_if_zero x) else_cell);
      push_expr t;
      ignore (emit_jump c (fun x -> Jump x) end_cell);
      else_cell := c.pc;
      push_expr f;
      end_cell := c.pc
    | Ast.Call ("malloc", [ n ]) ->
      push_expr n;
      emit c Alloc
    | Ast.Call (name, args) ->
      List.iter push_expr args;
      let index = c.pc in
      emit c (Call (0, List.length args));
      c.fixups <- (index, name) :: c.fixups
    | Ast.Index _ | Ast.Deref _ ->
      (match e.Ast.ty with
      | Ctypes.Array _ -> push_lvalue_address e
      | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _
      | Ctypes.Function _ ->
        push_lvalue_address e;
        emit c Load)
    | Ast.Addr_of a -> push_lvalue_address a
    | Ast.Cast (ty, a) ->
      push_expr a;
      let from_width = width_of a.Ast.ty and to_width = width_of ty in
      if from_width <> to_width then
        emit c
          (Cast { signed = Ctypes.is_signed a.Ast.ty; from_width; to_width })
    | Ast.Chan_recv _ -> error "C2Verilog has no channels"
  and push_binop e op a b =
    let pointer_scale ty =
      match ty with
      | Ctypes.Pointer elt -> max 1 (Ctypes.word_count elt)
      | _ -> 1
    in
    match (op, Ctypes.is_pointer a.Ast.ty, Ctypes.is_pointer b.Ast.ty) with
    | Ast.Add, true, false | Ast.Sub, true, false ->
      push_expr a;
      push_expr b;
      (match pointer_scale a.Ast.ty with
      | 1 -> ()
      | s ->
        emit c (Push (Int64.of_int s));
        emit c (Bin (Netlist.B_mul, 32)));
      emit c
        (Bin
           ( (if op = Ast.Add then Netlist.B_add else Netlist.B_sub),
             Ctypes.pointer_width ))
    | Ast.Sub, true, true ->
      push_expr a;
      push_expr b;
      emit c (Bin (Netlist.B_sub, 32));
      (match pointer_scale a.Ast.ty with
      | 1 -> ()
      | s ->
        emit c (Push (Int64.of_int s));
        emit c (Bin (Netlist.B_sdiv, 32)))
    | _ ->
      push_expr a;
      push_expr b;
      let signed = Ctypes.is_signed a.Ast.ty in
      let w = width_of a.Ast.ty in
      let bin netop = emit c (Bin (netop, w)) in
      (match op with
      | Ast.Add -> bin Netlist.B_add
      | Ast.Sub -> bin Netlist.B_sub
      | Ast.Mul -> bin Netlist.B_mul
      | Ast.Div -> bin (if signed then Netlist.B_sdiv else Netlist.B_udiv)
      | Ast.Mod -> bin (if signed then Netlist.B_srem else Netlist.B_urem)
      | Ast.Band -> bin Netlist.B_and
      | Ast.Bor -> bin Netlist.B_or
      | Ast.Bxor -> bin Netlist.B_xor
      | Ast.Shl -> bin Netlist.B_shl
      | Ast.Shr -> bin (if signed then Netlist.B_ashr else Netlist.B_lshr)
      | Ast.Eq -> bin Netlist.B_eq
      | Ast.Ne -> bin Netlist.B_ne
      | Ast.Lt -> bin (if signed then Netlist.B_slt else Netlist.B_ult)
      | Ast.Le -> bin (if signed then Netlist.B_sle else Netlist.B_ule)
      | Ast.Gt | Ast.Ge ->
        (* emit as swapped lt/le: re-push in swapped order *)
        ()
      | Ast.Log_and | Ast.Log_or ->
        error
          "internal: && and || are short-circuit control flow, not stack \
           datapath ops (handled in push_expr)");
      (match op with
      | Ast.Gt | Ast.Ge ->
        (* redo with swapped operand order *)
        c.code <- (match c.code with _ :: _ -> c.code | [] -> c.code);
        error "internal: Gt/Ge must be normalized before emission"
      | _ -> ());
      ignore e
  and exec_stmt (st : Ast.stmt) =
    match st.Ast.s with
    | Ast.Expr e ->
      push_expr e;
      if not (Ctypes.equal e.Ast.ty Ctypes.Void) then emit c Drop
    | Ast.Decl (ty, name, init) -> (
      let words = max 1 (Ctypes.word_count ty) in
      let offset = alloc_local words in
      bind_local name { offset; is_global = false; ty };
      match init with
      | None -> ()
      | Some e ->
        emit c (Push_frame_addr offset);
        push_expr e;
        emit c Store)
    | Ast.If (cond, t, f) ->
      let else_cell = ref 0 and end_cell = ref 0 in
      push_expr cond;
      ignore (emit_jump c (fun x -> Jump_if_zero x) else_cell);
      push_scope ();
      List.iter exec_stmt t;
      pop_scope ();
      ignore (emit_jump c (fun x -> Jump x) end_cell);
      else_cell := c.pc;
      push_scope ();
      List.iter exec_stmt f;
      pop_scope ();
      end_cell := c.pc
    | Ast.While (cond, body) ->
      let top = c.pc in
      let exit_cell = ref 0 in
      push_expr cond;
      ignore (emit_jump c (fun x -> Jump_if_zero x) exit_cell);
      let top_cell = ref top in
      c.loop_stack <- ([ exit_cell ], [ top_cell ]) :: c.loop_stack;
      push_scope ();
      List.iter exec_stmt body;
      pop_scope ();
      c.loop_stack <- List.tl c.loop_stack;
      ignore (emit_jump c (fun x -> Jump x) top_cell);
      exit_cell := c.pc
    | Ast.Do_while (body, cond) ->
      let top = c.pc in
      let exit_cell = ref 0 and test_cell = ref 0 in
      c.loop_stack <- ([ exit_cell ], [ test_cell ]) :: c.loop_stack;
      push_scope ();
      List.iter exec_stmt body;
      pop_scope ();
      c.loop_stack <- List.tl c.loop_stack;
      test_cell := c.pc;
      push_expr cond;
      ignore (emit_jump c (fun x -> Jump_if_zero x) exit_cell);
      let top_cell = ref top in
      ignore (emit_jump c (fun x -> Jump x) top_cell);
      exit_cell := c.pc
    | Ast.For (init, cond, step, body) ->
      push_scope ();
      (match init with None -> () | Some st -> exec_stmt st);
      let top = c.pc in
      let exit_cell = ref 0 and step_cell = ref 0 in
      (match cond with
      | None -> ()
      | Some e ->
        push_expr e;
        ignore (emit_jump c (fun x -> Jump_if_zero x) exit_cell));
      c.loop_stack <- ([ exit_cell ], [ step_cell ]) :: c.loop_stack;
      push_scope ();
      List.iter exec_stmt body;
      pop_scope ();
      c.loop_stack <- List.tl c.loop_stack;
      step_cell := c.pc;
      (match step with
      | None -> ()
      | Some e ->
        push_expr e;
        emit c Drop);
      let top_cell = ref top in
      ignore (emit_jump c (fun x -> Jump x) top_cell);
      exit_cell := c.pc;
      pop_scope ()
    | Ast.Return value ->
      let has_value = value <> None in
      (match value with None -> () | Some e -> push_expr e);
      emit c (Ret { args = nargs; has_value })
    | Ast.Break -> (
      match c.loop_stack with
      | (exit_cell :: _, _) :: _ ->
        ignore (emit_jump c (fun x -> Jump x) exit_cell)
      | ([], _) :: _ | [] -> error "break outside loop")
    | Ast.Continue -> (
      match c.loop_stack with
      | (_, continue_cell :: _) :: _ ->
        ignore (emit_jump c (fun x -> Jump x) continue_cell)
      | (_, []) :: _ | [] -> error "continue outside loop")
    | Ast.Block body ->
      push_scope ();
      List.iter exec_stmt body;
      pop_scope ()
    | Ast.Par _ | Ast.Chan_send _ -> error "C2Verilog has no concurrency"
    | Ast.Delay -> ()
    | Ast.Constrain (_, _, body) ->
      push_scope ();
      List.iter exec_stmt body;
      pop_scope ()
  in
  push_scope ();
  List.iter exec_stmt f.Ast.f_body;
  pop_scope ();
  (* implicit return *)
  if Ctypes.equal f.Ast.f_ret Ctypes.Void then
    emit c (Ret { args = nargs; has_value = false })
  else begin
    emit c (Push 0L);
    emit c (Ret { args = nargs; has_value = true })
  end;
  (* the frame size is patched in once the code array exists *)
  c.frame_fixups <- (enter_index, !next_local) :: c.frame_fixups

(* Gt/Ge are normalized to Lt/Le with swapped operands before emission. *)
let rec normalize_expr (e : Ast.expr) : Ast.expr =
  let sub = normalize_expr in
  let desc =
    match e.Ast.e with
    | Ast.Binop (Ast.Gt, a, b) -> Ast.Binop (Ast.Lt, sub b, sub a)
    | Ast.Binop (Ast.Ge, a, b) -> Ast.Binop (Ast.Le, sub b, sub a)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, sub a, sub b)
    | Ast.Unop (op, a) -> Ast.Unop (op, sub a)
    | Ast.Assign (l, r) -> Ast.Assign (sub l, sub r)
    | Ast.Cond (a, b, c2) -> Ast.Cond (sub a, sub b, sub c2)
    | Ast.Call (f, args) -> Ast.Call (f, List.map sub args)
    | Ast.Index (a, b) -> Ast.Index (sub a, sub b)
    | Ast.Deref a -> Ast.Deref (sub a)
    | Ast.Addr_of a -> Ast.Addr_of (sub a)
    | Ast.Cast (ty, a) -> Ast.Cast (ty, sub a)
    | Ast.Const _ | Ast.Var _ | Ast.Chan_recv _ -> e.Ast.e
  in
  { e with Ast.e = desc }

let rec normalize_stmt (st : Ast.stmt) : Ast.stmt =
  let se = normalize_expr and sb = List.map normalize_stmt in
  let desc =
    match st.Ast.s with
    | Ast.Expr e -> Ast.Expr (se e)
    | Ast.Decl (ty, n, init) -> Ast.Decl (ty, n, Option.map se init)
    | Ast.If (c2, t, f) -> Ast.If (se c2, sb t, sb f)
    | Ast.While (c2, b) -> Ast.While (se c2, sb b)
    | Ast.Do_while (b, c2) -> Ast.Do_while (sb b, se c2)
    | Ast.For (i, c2, s, b) ->
      Ast.For (Option.map normalize_stmt i, Option.map se c2, Option.map se s, sb b)
    | Ast.Return v -> Ast.Return (Option.map se v)
    | Ast.Break -> Ast.Break
    | Ast.Continue -> Ast.Continue
    | Ast.Block b -> Ast.Block (sb b)
    | Ast.Par bs -> Ast.Par (List.map sb bs)
    | Ast.Chan_send (ch, e) -> Ast.Chan_send (ch, se e)
    | Ast.Delay -> Ast.Delay
    | Ast.Constrain (lo, hi, b) -> Ast.Constrain (lo, hi, sb b)
  in
  { st with Ast.s = desc }

type compiled = {
  code : instr array;
  entry_pc : int;
  entry_args : int;
  memory_words : int;
  initial_memory : (int * Bitvec.t) list;
  globals_layout : (string, var_binding) Hashtbl.t;
  stack_base : int;
  heap_base : int;
}

let compile_program (program : Ast.program) ~entry : compiled =
  let program =
    { program with
      Ast.funcs =
        List.map
          (fun f -> { f with Ast.f_body = List.map normalize_stmt f.Ast.f_body })
          program.Ast.funcs }
  in
  let c =
    { program;
      code = [];
      pc = 0;
      functions = Hashtbl.create 16;
      globals_layout = Hashtbl.create 16;
      global_words = 0;
      fixups = [];
      loop_stack = [];
      pending_jumps = [];
      frame_fixups = [] }
  in
  (* lay out globals at the bottom of memory *)
  let initial_memory = ref [] in
  List.iter
    (fun (g : Ast.global) ->
      let words = max 1 (Ctypes.word_count g.Ast.g_ty) in
      let base = c.global_words in
      c.global_words <- c.global_words + words;
      Hashtbl.replace c.globals_layout g.Ast.g_name
        { offset = base; is_global = true; ty = g.Ast.g_ty };
      let elem_width =
        match g.Ast.g_ty with
        | Ctypes.Array (elt, _) -> width_of elt
        | ty -> width_of ty
      in
      match g.Ast.g_init with
      | None -> ()
      | Some values ->
        List.iteri
          (fun i v ->
            if i < words then
              initial_memory :=
                (base + i, Bitvec.of_int64 ~width:elem_width v)
                :: !initial_memory)
          values)
    program.Ast.globals;
  (* compile every function *)
  List.iter
    (fun (f : Ast.func) ->
      Hashtbl.replace c.functions f.Ast.f_name
        { address = -1;
          arg_words = List.length f.Ast.f_params;
          local_layout = Hashtbl.create 8;
          frame_words = 0 })
    program.Ast.funcs;
  List.iter
    (fun (f : Ast.func) ->
      let info = Hashtbl.find c.functions f.Ast.f_name in
      compile_function c f info)
    program.Ast.funcs;
  let code = Arrays.of_rev_list ~fill:Dup c.code in
  (* patch frame sizes *)
  List.iter (fun (index, locals) -> code.(index) <- Enter locals) c.frame_fixups;
  (* patch calls *)
  List.iter
    (fun (index, name) ->
      match Hashtbl.find_opt c.functions name with
      | Some info -> (
        match code.(index) with
        | Call (_, n) -> code.(index) <- Call (info.address, n)
        | _ -> error "bad call fixup")
      | None -> error "undefined function %s" name)
    c.fixups;
  (* patch jumps *)
  List.iter
    (fun (index, cell) ->
      match code.(index) with
      | Jump _ -> code.(index) <- Jump !cell
      | Jump_if_zero _ -> code.(index) <- Jump_if_zero !cell
      | _ -> error "bad jump fixup")
    c.pending_jumps;
  let entry_info =
    match Hashtbl.find_opt c.functions entry with
    | Some i -> i
    | None -> error "entry %s not found" entry
  in
  let stack_base = c.global_words in
  { code;
    entry_pc = entry_info.address;
    entry_args = entry_info.arg_words;
    memory_words = 1 lsl 16;
    initial_memory = !initial_memory;
    globals_layout = c.globals_layout;
    stack_base;
    heap_base = 1 lsl 15 }
