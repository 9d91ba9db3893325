(* The surveyed C-like hardware languages as *dialects* of one frontend.

   This module reproduces the paper's Table 1: each dialect records the
   chronology, provenance and one-line characterisation from the table plus
   the feature axes the paper's two discussion sections use (how concurrency
   is expressed, how time is controlled, what C constructs are excluded).
   It also enforces each dialect's restrictions on a checked program, e.g.
   Cones accepts a strict C subset with no pointers and bounded loops only,
   Bach C "supports arrays but not pointers", Cyber's BDL "prohibits
   recursive functions and pointers". *)

type concurrency =
  | Sequential (* compiler must find all parallelism *)
  | Process_level (* HardwareC/SystemC/Ocapi-style processes *)
  | Statement_level (* Handel-C/SpecC/Bach C par constructs *)

type timing =
  | Combinational (* no clock at all: Cones *)
  | Asynchronous (* no clock, handshaking: CASH *)
  | Implicit_rule of string (* fixed rule inserts cycle boundaries *)
  | Constraint_based (* HardwareC/Bach C scheduling under constraints *)
  | Explicit_cycles of string (* designer-visible cycle boundaries *)

type t = {
  name : string;
  citation : string; (* bracketed reference number in the paper *)
  year : int;
  origin : string;
  characterisation : string; (* the Table 1 one-liner *)
  concurrency : concurrency;
  timing : timing;
  allows_pointers : bool;
  allows_recursion : bool;
  allows_unbounded_loops : bool;
  allows_channels : bool;
  allows_par : bool;
  allows_constrain : bool;
  allows_delay : bool; (* Handel-C style explicit one-cycle delay *)
  backend : string; (* chls backend module that implements the scheme *)
}

let cones =
  { name = "Cones"; citation = "[23]"; year = 1988; origin = "AT&T Bell Labs";
    characterisation = "Early, combinational only";
    concurrency = Sequential; timing = Combinational;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = false; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false; backend = "cones" }

let hardwarec =
  { name = "HardwareC"; citation = "[12]"; year = 1990; origin = "Stanford";
    characterisation = "Behavioral synthesis-centric";
    concurrency = Process_level; timing = Constraint_based;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = true; allows_delay = false; backend = "hardwarec" }

let transmogrifier =
  { name = "Transmogrifier C"; citation = "[8]"; year = 1995;
    origin = "U. Toronto"; characterisation = "Limited scope";
    concurrency = Sequential;
    timing = Implicit_rule "cycle at loop iterations and function calls";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false;
    backend = "transmogrifier" }

let systemc =
  { name = "SystemC"; citation = "[9]"; year = 1999; origin = "OSCI";
    characterisation = "Verilog in C++"; concurrency = Process_level;
    timing = Explicit_cycles "wait() calls in sequential processes";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = true; backend = "systemc" }

let ocapi =
  { name = "Ocapi"; citation = "[19]"; year = 1998; origin = "IMEC";
    characterisation = "Algorithmic structural descriptions";
    concurrency = Process_level;
    timing = Explicit_cycles "one cycle per FSM state";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = true; allows_constrain = false; allows_delay = false; backend = "ocapi" }

let c2verilog =
  { name = "C2Verilog"; citation = "[21]"; year = 1998;
    origin = "CompiLogic / C Level Design";
    characterisation = "Comprehensive; company defunct";
    concurrency = Sequential;
    timing = Implicit_rule "compiler-inserted cycles, external constraints";
    allows_pointers = true; allows_recursion = true;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false; backend = "c2verilog" }

let cyber =
  { name = "Cyber (BDL)"; citation = "[24]"; year = 1999; origin = "NEC";
    characterisation = "Restricted C with extensions (NEC)";
    concurrency = Process_level;
    timing = Implicit_rule "implicit or explicit timing";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = false; backend = "cyber" }

let handelc =
  { name = "Handel-C"; citation = "[2]"; year = 1996; origin = "Celoxica";
    characterisation = "C with CSP (Celoxica)";
    concurrency = Statement_level;
    timing = Implicit_rule "each assignment/delay takes one cycle";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = true; backend = "handelc" }

let specc =
  { name = "SpecC"; citation = "[7]"; year = 2000; origin = "UC Irvine";
    characterisation = "Resolutely refinement-based";
    concurrency = Statement_level;
    timing = Explicit_cycles "refined from untimed to cycle-accurate";
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = true; backend = "specc" }

let bachc =
  { name = "Bach C"; citation = "[10]"; year = 2001; origin = "Sharp";
    characterisation = "Untimed semantics (Sharp)";
    concurrency = Statement_level; timing = Constraint_based;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = true; allows_par = true;
    allows_constrain = false; allows_delay = false; backend = "bachc" }

let cash =
  { name = "CASH"; citation = "[1]"; year = 2002; origin = "CMU";
    characterisation = "Synthesizes asynchronous circuits";
    concurrency = Sequential; timing = Asynchronous;
    allows_pointers = false; allows_recursion = false;
    allows_unbounded_loops = true; allows_channels = false;
    allows_par = false; allows_constrain = false; allows_delay = false; backend = "cash" }

(** All dialects in the chronological order of the paper's Table 1. *)
let table1 =
  [ cones; hardwarec; transmogrifier; systemc; ocapi; c2verilog; cyber;
    handelc; specc; bachc; cash ]

let find name =
  List.find_opt
    (fun d -> String.lowercase_ascii d.name = String.lowercase_ascii name)
    table1

let string_of_concurrency = function
  | Sequential -> "compiler-inferred"
  | Process_level -> "process-level constructs"
  | Statement_level -> "statement-level par"

let string_of_timing = function
  | Combinational -> "combinational (no clock)"
  | Asynchronous -> "asynchronous handshaking"
  | Implicit_rule r -> "implicit rule: " ^ r
  | Constraint_based -> "scheduled under timing constraints"
  | Explicit_cycles r -> "explicit cycles: " ^ r

(* --- legality checking --- *)

type violation = { rule : string; where : string; vloc : Ast.loc }
(* [vloc] pins the offending statement or expression when the checker
   saw one ([Ast.no_loc] for program-level rules like recursion). *)

let rec uses_pointer_type = function
  | Ctypes.Pointer _ -> true
  | Ctypes.Array (t, _) -> uses_pointer_type t
  | Ctypes.Function { ret; params } ->
    uses_pointer_type ret || List.exists uses_pointer_type params
  | Ctypes.Void | Ctypes.Integer _ -> false

(* What one function uses of the constructs some dialect forbids: the
   first offender of each kind in [Ast.iter_func] order, so a violation
   can carry a location rather than just the function name.  Filled by
   one walk and never mutated after. *)
type features = {
  fname : string;
  mutable pointer_expr : Ast.loc option;
  mutable pointer_decl : Ast.loc option;
  mutable unbounded_loop : Ast.loc option;
  mutable par : Ast.loc option;
  mutable chan_stmt : Ast.loc option;
  mutable chan_expr : Ast.loc option;
  mutable constrain : Ast.loc option;
  mutable delay : Ast.loc option;
  mutable calls : string list;
}

let features_of (f : Ast.func) =
  let r =
    { fname = f.Ast.f_name; pointer_expr = None; pointer_decl = None;
      unbounded_loop = None; par = None; chan_stmt = None; chan_expr = None;
      constrain = None; delay = None; calls = [] }
  in
  Ast.iter_func
    ~stmt:(fun st ->
      let loc = st.Ast.sloc in
      match st.Ast.s with
      | Ast.Decl (ty, _, _) ->
        if r.pointer_decl = None && uses_pointer_type ty then
          r.pointer_decl <- Some loc
      | Ast.While _ | Ast.Do_while _ ->
        if r.unbounded_loop = None then r.unbounded_loop <- Some loc
      | Ast.For (init, cond, step, _) ->
        (* Bounded form: for (int i = c0; i <relop> c1; i = i +/- c2) *)
        if
          r.unbounded_loop = None
          && not (Loopform.is_statically_bounded ~init ~cond ~step)
        then r.unbounded_loop <- Some loc
      | Ast.Par _ -> if r.par = None then r.par <- Some loc
      | Ast.Chan_send _ -> if r.chan_stmt = None then r.chan_stmt <- Some loc
      | Ast.Constrain _ -> if r.constrain = None then r.constrain <- Some loc
      | Ast.Delay -> if r.delay = None then r.delay <- Some loc
      | Ast.Expr _ | Ast.If _ | Ast.Return _ | Ast.Break | Ast.Continue
      | Ast.Block _ -> ())
    ~expr:(fun e ->
      match e.Ast.e with
      | Ast.Deref _ | Ast.Addr_of _ ->
        if r.pointer_expr = None then r.pointer_expr <- Some e.Ast.eloc
      | Ast.Chan_recv _ ->
        if r.chan_expr = None then r.chan_expr <- Some e.Ast.eloc
      | Ast.Call (name, _) -> r.calls <- name :: r.calls
      | Ast.Const _ | Ast.Var _ | Ast.Unop _ | Ast.Binop _ | Ast.Assign _
      | Ast.Cond _ | Ast.Index _ | Ast.Cast _ -> ())
    f;
  r

(* Direct or mutual recursion via the static call graph. *)
let recursive_of (funcs : features list) =
  let calls = Hashtbl.create 16 in
  List.iter (fun ff -> Hashtbl.replace calls ff.fname ff.calls) funcs;
  let callees f = Option.value ~default:[] (Hashtbl.find_opt calls f) in
  let rec reach seen f =
    if List.mem f seen then seen
    else List.fold_left reach (f :: seen) (callees f)
  in
  List.filter_map
    (fun { fname; _ } ->
      if List.exists (fun c -> List.mem fname (reach [] c)) (callees fname)
      then Some fname
      else None)
    funcs

(* Everything every dialect's rules ask of one program, per function in
   program order, plus the program-level facts. *)
type summary = {
  funcs : features list;
  pointer_globals : string list;
  recursive : string list;
}

let summarize (p : Ast.program) =
  let funcs = List.map features_of p.Ast.funcs in
  { funcs;
    pointer_globals =
      List.filter_map
        (fun (g : Ast.global) ->
          if uses_pointer_type g.Ast.g_ty then Some g.Ast.g_name else None)
        p.Ast.globals;
    recursive = recursive_of funcs }

(* The last program summarized, keyed by physical identity: a compare
   checks one parsed program against every backend's dialect (in the
   driver, again inside each backend, and in the concurrency checker),
   and all of them share one walk.  An atomic slot of an immutable pair
   is safe across domains and keeps at most one program alive.  The key
   is sound because a summary reads no mutable part of the AST (the
   only one, [Ast.expr.ty], is written by the type checker). *)
let last : (Ast.program * summary) option Atomic.t = Atomic.make None

let summary p =
  match Atomic.get last with
  | Some (q, s) when q == p -> s
  | Some _ | None ->
    let s = summarize p in
    Atomic.set last (Some (p, s));
    s

let uses_par p = List.exists (fun ff -> ff.par <> None) (summary p).funcs

let uses_concurrency p =
  List.exists
    (fun ff -> ff.par <> None || ff.chan_stmt <> None || ff.chan_expr <> None)
    (summary p).funcs

(** Check a (type-checked) program against a dialect's restrictions.
    Returns the list of violations; empty means the program is legal. *)
let check dialect (p : Ast.program) : violation list =
  let s = summary p in
  let violations = ref [] in
  let add ?(loc = Ast.no_loc) rule where =
    violations := { rule; where; vloc = loc } :: !violations
  in
  List.iter
    (fun ff ->
      (* one violation per (rule, function), located at the first
         offender *)
      let rule allowed found what =
        match found with
        | Some loc when not allowed -> add ~loc (dialect.name ^ what) ff.fname
        | Some _ | None -> ()
      in
      rule dialect.allows_pointers ff.pointer_expr
        " forbids pointer operations";
      rule dialect.allows_pointers ff.pointer_decl
        " forbids pointer-typed variables";
      rule dialect.allows_unbounded_loops ff.unbounded_loop
        " requires statically bounded loops";
      rule dialect.allows_par ff.par " has no parallel construct";
      rule dialect.allows_channels
        (if ff.chan_stmt <> None then ff.chan_stmt else ff.chan_expr)
        " has no channels";
      rule dialect.allows_constrain ff.constrain " has no timing constraints";
      rule dialect.allows_delay ff.delay " has no delay statement")
    s.funcs;
  if not dialect.allows_pointers then
    List.iter
      (fun g -> add (dialect.name ^ " forbids pointer-typed globals") g)
      s.pointer_globals;
  if not dialect.allows_recursion then
    List.iter
      (fun name -> add (dialect.name ^ " forbids recursion") name)
      s.recursive;
  List.rev !violations
