(* Abstract syntax for the CHLS C-like source language.

   The base language is a C subset (integers, arrays, pointers, functions,
   structured control flow).  On top of it sit the hardware extensions the
   surveyed languages add — each is legal only in the dialects that have it
   (see dialect.ml):

     par { {...} {...} }          Handel-C / Bach C / SpecC concurrency
     send(ch, e); / recv(ch)      OCCAM-style rendezvous channels
     delay;                       Handel-C explicit one-cycle delay
     constrain(min, max) { ... }  HardwareC min/max timing constraints *)

type loc = { line : int; col : int }

let no_loc = { line = 0; col = 0 }

type unop = Neg | Bit_not | Log_not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Log_and | Log_or

type expr = { e : expr_desc; mutable ty : Ctypes.t; eloc : loc }

and expr_desc =
  | Const of int64 * Ctypes.t
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr (* lvalue = rvalue *)
  | Cond of expr * expr * expr
  | Call of string * expr list
  | Index of expr * expr
  | Deref of expr
  | Addr_of of expr
  | Cast of Ctypes.t * expr
  | Chan_recv of string

type stmt = { s : stmt_desc; sloc : loc }

and stmt_desc =
  | Expr of expr
  | Decl of Ctypes.t * string * expr option
  | If of expr * block * block
  | While of expr * block
  | Do_while of block * expr
  | For of stmt option * expr option * expr option * block
  | Return of expr option
  | Break
  | Continue
  | Block of block
  | Par of block list
  | Chan_send of string * expr
  | Delay
  | Constrain of int * int * block

and block = stmt list

type global = {
  g_name : string;
  g_ty : Ctypes.t;
  g_init : int64 list option; (* scalars: singleton; arrays: element list *)
}

type chan = { c_name : string; c_ty : Ctypes.t }

type func = {
  f_name : string;
  f_ret : Ctypes.t;
  f_params : (Ctypes.t * string) list;
  f_body : block;
}

type program = { globals : global list; chans : chan list; funcs : func list }

let mk_expr ?(loc = no_loc) e = { e; ty = Ctypes.Void; eloc = loc }
let mk_stmt ?(loc = no_loc) s = { s; sloc = loc }

let find_func program name =
  List.find_opt (fun f -> String.equal f.f_name name) program.funcs

let find_global program name =
  List.find_opt (fun g -> String.equal g.g_name name) program.globals

let find_chan program name =
  List.find_opt (fun c -> String.equal c.c_name name) program.chans

let string_of_unop = function Neg -> "-" | Bit_not -> "~" | Log_not -> "!"

let string_of_binop = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Log_and -> "&&" | Log_or -> "||"

(* Structural traversals used by the dialect checker and analyses. *)

let rec iter_expr f expr =
  f expr;
  match expr.e with
  | Const _ | Var _ | Chan_recv _ -> ()
  | Unop (_, a) | Cast (_, a) | Deref a | Addr_of a -> iter_expr f a
  | Binop (_, a, b) | Assign (a, b) | Index (a, b) ->
    iter_expr f a;
    iter_expr f b
  | Cond (a, b, c) ->
    iter_expr f a;
    iter_expr f b;
    iter_expr f c
  | Call (_, args) -> List.iter (iter_expr f) args

let rec iter_stmt ~stmt:fs ~expr:fe st =
  fs st;
  let expr_opt = function None -> () | Some e -> iter_expr fe e in
  match st.s with
  | Expr e | Chan_send (_, e) -> iter_expr fe e
  | Decl (_, _, init) -> expr_opt init
  | If (c, t, e) ->
    iter_expr fe c;
    List.iter (iter_stmt ~stmt:fs ~expr:fe) t;
    List.iter (iter_stmt ~stmt:fs ~expr:fe) e
  | While (c, body) ->
    iter_expr fe c;
    List.iter (iter_stmt ~stmt:fs ~expr:fe) body
  | Do_while (body, c) ->
    List.iter (iter_stmt ~stmt:fs ~expr:fe) body;
    iter_expr fe c
  | For (init, cond, step, body) ->
    (match init with None -> () | Some st -> iter_stmt ~stmt:fs ~expr:fe st);
    expr_opt cond;
    expr_opt step;
    List.iter (iter_stmt ~stmt:fs ~expr:fe) body
  | Return e -> expr_opt e
  | Break | Continue | Delay -> ()
  | Block body | Constrain (_, _, body) ->
    List.iter (iter_stmt ~stmt:fs ~expr:fe) body
  | Par blocks -> List.iter (List.iter (iter_stmt ~stmt:fs ~expr:fe)) blocks

let iter_func ~stmt ~expr func = List.iter (iter_stmt ~stmt ~expr) func.f_body

(** True if any statement of [func] satisfies [pred]. *)
let exists_stmt pred func =
  let found = ref false in
  iter_func ~stmt:(fun s -> if pred s then found := true) ~expr:(fun _ -> ())
    func;
  !found
