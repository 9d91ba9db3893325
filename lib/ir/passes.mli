(** The pass manager: every backend's lowering pipeline, declared.

    A pipeline is a declarative list of named transforms — source-level
    passes ([Ast.program -> Ast.program], e.g. loop unrolling), the
    lowering stage itself, and CIR passes ([Cir.func -> Cir.func], e.g.
    CFG simplification).  Running a pipeline records a per-pass trace
    (wall time plus IR-size deltas: blocks, instructions, registers),
    supports dump hooks after any named pass, and — when verification
    vectors are supplied — differentially checks every
    semantics-preserving pass against {!Cir_interp} before/after, so each
    pass is individually oracle-checked instead of only end-to-end.

    Backends declare their pipelines through this module; the CLI exposes
    the machinery as [chlsc compile --trace-passes | --dump-ir <pass> |
    --verify-passes]. *)

(** {1 Trace records} *)

type size = {
  blocks : int;  (** CIR basic blocks; functions at the source level *)
  instrs : int;  (** CIR instructions; statements at the source level *)
  regs : int;  (** virtual registers; 0 at the source level *)
}

type level = Source | Ir

type record = {
  pass_name : string;
  level : level;
  start_ms : float;
      (** offset of this pass's start from the pipeline run's begin, so a
          trace can be replayed as a span tree without re-timing *)
  wall_ms : float;
  before : size;
  after : size;
  verified : int;
      (** argument vectors differentially checked through {!Cir_interp};
          0 when verification was off or inapplicable *)
}

type trace = record list

val render_table : trace -> string
(** Fixed-width per-pass table: time, size deltas, vectors verified. *)

(** {1 Passes and pipelines} *)

type func_pass = {
  fp_name : string;
  fp_transform : Cir.func -> Cir.func;
  fp_preserves_semantics : bool;
      (** verified differentially when vectors are supplied *)
}

type program_pass = {
  pp_name : string;
  pp_transform : Ast.program -> Ast.program;
  pp_preserves_semantics : bool;
}

val func_pass :
  ?preserves_semantics:bool -> string -> (Cir.func -> Cir.func) -> func_pass
(** [preserves_semantics] defaults to [true]. *)

val program_pass :
  ?preserves_semantics:bool -> string -> (Ast.program -> Ast.program) ->
  program_pass

val simplify_pass : func_pass
(** {!Simplify.simplify}, block mapping discarded. *)

val unroll_loops_pass : program_pass
(** {!Loopopt.unroll_all_program} (Transmogrifier-style recoding). *)

val fuse_temps_pass : program_pass
(** {!Loopopt.fuse_program} (Handel-C-style recoding). *)

val unroll_factor_pass : int -> program_pass
(** [unroll_factor_pass n] is {!Loopopt.unroll_factor_program}[ ~factor:n]
    under the name ["unroll-x<n>"] — the configurable-unroll knob a
    [Config.t] turns into a pipeline stage.  Factor 1 is the identity. *)

type pipeline = {
  pl_name : string;
  pl_program_passes : program_pass list;
  pl_func_passes : func_pass list;
  pl_lowers : bool;
      (** whether the backend runs the CIR lowering stage; [false] for the
          source-consuming backends (Cones, C2Verilog) *)
}

val pipeline :
  ?program_passes:program_pass list -> ?func_passes:func_pass list ->
  ?lowers:bool -> string -> pipeline
(** [lowers] defaults to [true]. *)

val describe : pipeline -> string
(** ["unroll-loops; lower; simplify"] — the stages in execution order
    (non-lowering pipelines omit the lower stage). *)

(** {1 Options}

    Per-compile knobs.  Every run entry point takes [?options]; callers
    above this library carry them in a [Config.t] and pass them down
    explicitly, so concurrent compiles on separate domains cannot bleed
    options into each other. *)

type options = {
  verify : int list list;
      (** argument vectors for differential verification; [[]] disables *)
  dump_after : string list;
      (** pass names (including ["lower"]) whose output IR to dump *)
  dump_sink : string -> unit;  (** where dumps go; default [print_string] *)
}

val default_options : options

(** {1 Running} *)

exception Verification_failed of string
(** A semantics-preserving pass changed observable behaviour (return
    value, a scalar global, or a memory) on a verification vector. *)

val run :
  ?options:options -> pipeline -> Ast.program -> entry:string ->
  Lower.result * trace
(** Apply the program passes, lower the entry function, then apply the
    CIR passes; the returned {!Lower.result} carries the final function.
    [options] defaults to {!default_options}.
    @raise Lower.Error as {!Lower.lower_program} does — the payload
    carries the offending AST location for [file:line:col] diagnostics.
    @raise Verification_failed under [options.verify] on divergence. *)

val run_program_passes :
  ?options:options -> pipeline -> Ast.program -> entry:string ->
  Ast.program * trace
(** The source-level prefix only — for backends that never lower
    (Cones' symbolic execution, C2Verilog's stack-machine compiler) and
    for paths that need the transformed AST itself.  [entry] names the
    function the source-level differential checks execute. *)

val lower_simplify :
  ?options:options -> Ast.program -> entry:string -> Lower.result * trace
(** The default [lower; simplify] pipeline shared by the CLI, benches and
    examples. *)
