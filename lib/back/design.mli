(** The common result type of every synthesis backend.

    Backends produce different artifacts (combinational netlists,
    scheduled FSMDs, statement machines, asynchronous circuits, a stack
    machine), so a design exposes a uniform behavioural interface — run on
    inputs, observe outputs and timing — plus optional structural views. *)

type engine =
  | Compiled  (** levelized-closure fast path ({!Netcomp}/{!Fsmdcomp}) *)
  | Reference  (** interpreting oracle ({!Neteval}/{!Rtlsim}) *)
      (** Which simulation engine executes the behavioural run.  The
          interpreter survives as the differential oracle for the
          compiled engine ([chlsc compile --verify-sim]); backends with a
          single simulator ignore the selection. *)

val engine_name : engine -> string
(** ["compiled"] or ["reference"] — the [--sim] flag values. *)

val engine_of_name : string -> engine option
(** Inverse of {!engine_name}; also accepts ["event"] and ["sweep"], the
    names of the two interpreter strategies the reference replaced. *)

type run_result = {
  result : Bitvec.t option;
  globals : (string * Bitvec.t) list;  (** scalar globals after the run *)
  memories : (string * Bitvec.t array) list;  (** array globals after *)
  cycles : int option;  (** clocked designs *)
  time_units : float option;  (** asynchronous / combinational settle *)
  metrics : Metrics.t;
      (** simulator performance counters for this run (cycles, state
          visits, token firings, evaluator activity) in the unified
          registry; [chlsc compile --metrics-json] merges it into the run
          report *)
}

type t = {
  design_name : string;
  backend : string;
  run : ?vcd:Vcd.t -> ?sim:engine -> Bitvec.t list -> run_result;
      (** [vcd]: trace the behavioural simulation as a waveform (the FSMD
          backends trace per-cycle register state, CASH traces token
          firings); backends whose simulator has no trace hook ignore
          it.  [sim]: engine selection, default {!Compiled}; backends
          with a single simulator ignore it *)
  area : unit -> Area.report option;
  verilog : unit -> string option;
  netlist : unit -> Netlist.t option;
      (** the word-level structural view, when the backend elaborates to
          one (area and Verilog derive from it; [chlsc --stats] drives it
          through the netlist evaluator) *)
  clock_period : float option;  (** estimated; [None] when unclocked *)
  stats : (string * string) list;  (** backend-specific facts *)
  pass_trace : Passes.trace;
      (** per-pass compile record (time, IR-size deltas, vectors verified)
          from the backend's declared pipeline; [[]] for structural
          backends that run no passes.  [chlsc compile --trace-passes]
          renders it. *)
}

val int_args : int list -> Bitvec.t list
(** 64-bit argument vectors from plain integers. *)

val run_traced :
  ?ctx:Span.ctx -> ?vcd:Vcd.t -> ?sim:engine -> t -> Bitvec.t list -> run_result
(** [run] inside a ["simulate"] span: backend and engine kind as
    attributes up front, cycles / settle time attached on completion, an
    ["error"] attribute (and a re-raise) on simulator exceptions.  With
    the default null context this is exactly [design.run]. *)

val run_int : t -> int list -> int option
(** Run with integer arguments; the result as an int. *)

val latency_estimate : t -> run_result -> float option
(** Wall-clock estimate: cycles x clock period for clocked designs, the
    recorded completion/settle time otherwise. *)

type lock
(** Serialises the uses of one design's shared mutable state (a compiled
    engine reused across runs, lazily built views) across domains.  A
    lock survives the disk store's [Marshal] round trip. *)

val new_lock : unit -> lock

val with_lock : lock -> (unit -> 'a) -> 'a
(** [with_lock l f] runs [f] holding [l], and releases it if [f]
    raises. *)
