(** Abstract syntax for the CHLS C-like source language: a C subset plus
    the hardware extensions the surveyed languages add —

    {ul
    {- [par { {...} {...} }]: Handel-C / Bach C / SpecC concurrency;}
    {- [send(ch, e)] / [recv(ch)]: OCCAM-style rendezvous channels;}
    {- [delay;]: Handel-C's explicit one-cycle delay;}
    {- [constrain(min, max) { ... }]: HardwareC timing constraints.}}

    Each extension is legal only in the dialects that have it
    (see {!Dialect}). *)

type loc = { line : int; col : int }

val no_loc : loc

type unop = Neg | Bit_not | Log_not

type binop =
  | Add | Sub | Mul | Div | Mod
  | Band | Bor | Bxor | Shl | Shr
  | Eq | Ne | Lt | Le | Gt | Ge
  | Log_and | Log_or

type expr = { e : expr_desc; mutable ty : Ctypes.t; eloc : loc }
(** [ty] is filled by the type checker ([Void] until then). *)

and expr_desc =
  | Const of int64 * Ctypes.t
  | Var of string
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Assign of expr * expr  (** lvalue = rvalue *)
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
  g_init : int64 list option;
      (** scalars: singleton; arrays: element list *)
}

type chan = { c_name : string; c_ty : Ctypes.t }

type func = {
  f_name : string;
  f_ret : Ctypes.t;
  f_params : (Ctypes.t * string) list;
  f_body : block;
}

type program = { globals : global list; chans : chan list; funcs : func list }

val mk_expr : ?loc:loc -> expr_desc -> expr
val mk_stmt : ?loc:loc -> stmt_desc -> stmt

val find_func : program -> string -> func option
val find_global : program -> string -> global option
val find_chan : program -> string -> chan option

val string_of_unop : unop -> string
val string_of_binop : binop -> string

(** {1 Structural traversals} (dialect checking and analyses) *)

val iter_expr : (expr -> unit) -> expr -> unit

val iter_stmt : stmt:(stmt -> unit) -> expr:(expr -> unit) -> stmt -> unit

val iter_func : stmt:(stmt -> unit) -> expr:(expr -> unit) -> func -> unit

val exists_stmt : (stmt -> bool) -> func -> bool
