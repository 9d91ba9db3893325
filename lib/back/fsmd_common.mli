(** Shared plumbing for the FSMD-producing backends: run the declared
    pipeline through the pass manager, build the FSMD under
    the backend's scheduling policy, and wrap simulator + elaboration
    into a Design. *)

val design :
  backend:string -> name:string -> stats:(string * string) list ->
  pass_trace:Passes.trace -> Fsmd.t -> Design.t
(** Wrap an FSMD as a Design: runs go through {!Fsmdcomp} (compiled once
    per design; the oracle engines run the {!Rtlsim} interpreter) with
    [sim.engine] / [sim.cycles] / [sim.states_visited] metrics, and the
    structural views come from one lazy {!Rtlgen} elaboration ([None] on
    an elaboration error).  Every run and every structural view holds
    the design's {!Design.lock}, so one design may be shared by several
    domains.  Also used by the structural OCAPI front end. *)

val build :
  backend_name:string -> ?mem_forwarding:bool ->
  ?pipeline:Passes.pipeline -> ?knobs:Backend.knobs ->
  schedule_block:(Cir.func -> Cir.block -> Schedule.schedule) ->
  ?extra_stats:(Lower.result -> Fsmd.t -> (string * string) list) ->
  Ast.program -> entry:string -> Design.t
(** [pipeline] defaults to [backend_name: lower; simplify].  [knobs]
    (default {!Backend.default_knobs}) supplies the per-compile pass
    options and specializes the pipeline ({!Backend.specialize});
    resource bounds stay the caller's business — close [schedule_block]
    over [knobs.resources].  Legality is checked by the caller. *)
