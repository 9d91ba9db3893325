(** Word-level synchronous netlists: the common hardware substrate.

    A netlist is a graph of typed nodes (constants, inputs, operators,
    muxes, registers, memory ports) referenced by dense signal ids.
    Cones emits purely combinational netlists; the FSMD backends
    elaborate controller+datapath into one; the area model, Verilog
    emitter and evaluator all consume it.

    Builder discipline: combinational fan-in always references already-
    created signals, so signal id order is a topological order for
    combinational dependencies (the evaluator relies on it).  Only
    register next-state inputs and memory write ports may point forward,
    via the two-step [reg_forward]/[reg_connect] and [mem_write]. *)

type signal = int

type unop = U_not | U_neg | U_reduce_or

type binop =
  | B_add | B_sub | B_mul | B_udiv | B_urem | B_sdiv | B_srem
  | B_and | B_or | B_xor
  | B_shl | B_lshr | B_ashr
  | B_eq | B_ne | B_ult | B_ule | B_slt | B_sle

type node =
  | Const of Bitvec.t
  | Input of string
  | Unop of unop * signal
  | Binop of binop * signal * signal
  | Mux of { sel : signal; if_true : signal; if_false : signal }
  | Concat of { hi : signal; lo : signal }
  | Extract of { hi : int; lo : int; arg : signal }
  | Zext of { width : int; arg : signal }
  | Sext of { width : int; arg : signal }
  | Reg of { init : Bitvec.t; next : signal; enable : signal option }
  | Mem_read of { mem : int; addr : signal }

type mem = {
  mem_name : string;
  word_width : int;
  depth : int;
  mutable write_port : (signal * signal * signal) option;
      (** we, waddr, wdata — synchronous write; reads are combinational *)
  init : Bitvec.t array option;
}

type t

val create : ?name:string -> unit -> t
val length : t -> int
val node : t -> signal -> node
val width : t -> signal -> int
val name : t -> string

(** {1 Building} *)

val add : t -> width:int -> node -> signal
val const : t -> Bitvec.t -> signal
val const_int : t -> width:int -> int -> signal
val input : t -> string -> width:int -> signal
val unop : t -> unop -> signal -> signal

val is_comparison : binop -> bool

val binop : t -> binop -> signal -> signal -> signal
(** Result width: 1 for comparisons, else the left operand's. *)

val mux : t -> sel:signal -> if_true:signal -> if_false:signal -> signal
val concat : t -> hi:signal -> lo:signal -> signal
val extract : t -> hi:int -> lo:int -> signal -> signal
val zext : t -> width:int -> signal -> signal
val sext : t -> width:int -> signal -> signal

val resize : t -> signed:bool -> width:int -> signal -> signal
(** C conversion rules: truncate narrowing, extend per [signed]. *)

val reg_forward : t -> init:Bitvec.t -> signal
(** Allocate a register with its next-state unconnected (feedback). *)

val reg_connect : t -> signal -> next:signal -> ?enable:signal -> unit -> unit

val reg : t -> init:Bitvec.t -> next:signal -> ?enable:signal -> unit -> signal

val add_mem :
  t -> name:string -> word_width:int -> depth:int ->
  ?init:Bitvec.t array -> unit -> int

val mem_read : t -> mem:int -> addr:signal -> signal

val mem_write : t -> mem:int -> we:signal -> addr:signal -> data:signal -> unit
(** Connect the (single) synchronous write port.
    @raise Invalid_argument if already connected. *)

val mems : t -> mem array

val set_output : t -> string -> signal -> unit
val outputs : t -> (string * signal) list
val inputs : t -> (string * signal) list

(** {1 Traversal} *)

val comb_deps : node -> signal list
(** Combinational fan-in (register nexts are sequential edges). *)

val sequential_deps : node -> signal list

val num_registers : t -> int

val string_of_unop : unop -> string
val string_of_binop : binop -> string
