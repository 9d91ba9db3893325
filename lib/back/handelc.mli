(** Handel-C backend [Celoxica] — and the concurrent Bach C variant.

    A cycle-accurate statement machine over the interpreter's expression
    semantics: assignments and [delay] cost exactly one cycle, control is
    free (unbounded zero-cost stepping is rejected as a combinational
    cycle), a rendezvous transfer costs one cycle for both endpoints.
    The [`Scheduled] policy instead packs independent assignments per
    cycle (Bach C's compiler-decided timing for concurrent programs).

    Sequential programs additionally get a structural view — an FSMD cut
    at assignment boundaries, elaborated to a netlist — behind
    [Design.area]/[Design.verilog]. *)

exception Combinational_loop
exception Deadlock
exception Timeout

type policy = [ `One_cycle_per_assignment | `Scheduled ]

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  assignments : int;  (** dynamic assignment count *)
  store : Interp.store;
}

val run :
  ?max_cycles:int -> ?ops_per_cycle:int -> policy:policy -> Ast.program ->
  entry:string -> args:Bitvec.t list -> outcome
(** Run the statement machine to completion.
    @raise Deadlock / Timeout / Combinational_loop as named. *)

val estimate_clock_period : Ast.program -> float
(** The deepest assignment expression's combinational delay: Handel-C's
    achievable clock (assignments must settle in one cycle). *)

val estimate_area : Ast.program -> float
(** Dedicated hardware per static assignment plus variable registers. *)

val compile_with_policy :
  backend_name:string -> dialect:Dialect.t ->
  policy:[ `One_per_assignment | `Scheduled ] ->
  ?program_passes:Passes.program_pass list -> ?knobs:Backend.knobs ->
  Ast.program -> entry:string -> Design.t
(** [program_passes] are source-level recodings declared to the pass
    manager (timed, differentially checked); the statement machine runs
    the transformed program.  [knobs] (default {!Backend.default_knobs})
    supplies the per-compile pass options and the unroll factor.  When
    the sequential structural view cannot be lowered, the reason appears
    as a ["structural view"] diagnostic in the design's stats.  [dialect]
    sets the concurrency checker's severities; legality is not checked
    here but at the caller's entry point, once. *)

val dialect : Dialect.t

val pipeline : Passes.pipeline
(** The structural view's pipeline: [lower; simplify]. *)

val compile : ?knobs:Backend.knobs -> Ast.program -> entry:string -> Design.t
(** The Handel-C rule: one cycle per assignment. *)

val compile_fused : Ast.program -> entry:string -> Design.t
(** E4's recoding: fuse single-use temporaries first. *)

val descriptor : Backend.descriptor
