(** The C2Verilog execution engine: a word stack machine (code ROM + one
    unified RAM + small datapath) simulated cycle-by-cycle under the
    backend's rule set, plus its Design wrapper.

    Memory map: [memory_words] words, globals in [0, stack_base), the
    combined evaluation/call stack in [stack_base, heap_base) growing up,
    the malloc heap above.  Every stored word is masked to its C type's
    width.  {!run} keeps the image in two segments, globals and stack from
    address 0 and the heap from [heap_base], each grown on demand: a run
    allocates for the words it writes, never-written words read as zero,
    and [memory_words] stays the size of the RAM the area, Verilog and
    stats views report. *)

exception Runtime_error of string
exception Timeout

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  instructions_executed : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
}

val run :
  ?max_cycles:int -> C2verilog.compiled -> ret_width:int ->
  args:Bitvec.t list -> outcome
(** Boot protocol: arguments then a return pc beyond the code; execution
    ends when the entry function returns there.
    @raise Runtime_error on stack overflow / wild access,
    @raise Timeout past [max_cycles]. *)

val pipeline : Passes.pipeline
(** Source-only and empty: the stack-machine compiler consumes the AST
    (pointers and recursion need the unified memory, not CIR). *)

val compile : ?knobs:Backend.knobs -> Ast.program -> entry:string -> Design.t
(** The full backend: compile to stack code, wrap the machine; the
    Verilog view is the generated processor (see {!C2v_verilog}). *)

val descriptor : Backend.descriptor
