(** Compiled netlist simulation: levelize once, then run closures.

    [Neteval] interprets the netlist graph on every settle — each node
    evaluation re-dispatches on the node constructor and re-boxes its
    result.  This module compiles the netlist once into straight-line
    closure arrays: signals are levelized (topological strata over the
    combinational dependence edges), each operator becomes one
    specialized [unit -> unit] closure writing a preallocated slot in an
    unboxed [int] value array, registers are double-buffered across
    [tick], and cycles batch with no per-cycle graph walk.  Probe hooks
    (VCD tracing) only pay when attached: an id-order change walk against
    a shadow array reproduces [Neteval]'s committed-change stream
    exactly.

    The compiled engine requires every signal and memory word to fit an
    unboxed OCaml int (width <= 62).  Wider designs transparently fall
    back to the {!Neteval} full sweep, which also remains available as
    the reference the compiled engine is checked against (see
    [bench/simcomp_bench.ml] and [chlsc compile --verify-sim]). *)

val compilable : Netlist.t -> bool
(** Can this netlist run on the compiled int engine?  Requires all
    signal and memory-word widths in [1;62], width-matched binop
    operands and write ports.  When [false], the functions below
    delegate to {!Neteval}. *)

type t

val create : Netlist.t -> t
(** Levelize and compile.  Falls back to an embedded {!Neteval} instance
    when the netlist is not {!compilable}. *)

val compiled : t -> bool
(** [true] when running on closures, [false] on the interpreter
    fallback. *)

val num_levels : t -> int
(** Topological strata count (0 for the interpreter fallback). *)

val reset : t -> unit
(** Rewind to power-on state — registers and memories reload their
    initial images, the cycle counter restarts — while keeping the
    compiled closures, so one [create] can serve many runs.  On the
    interpreter fallback this rebuilds the {!Neteval} instance
    (dropping any attached probe; re-attach after reset if needed). *)

val set_probe : t -> Neteval.probe -> unit
(** Observe committed value changes (id order within each settle), with
    the same change stream [Neteval] produces.  Attaching a probe
    enables the shadow-compare walk; unobserved runs skip it. *)

val settle : t -> inputs:(string * Bitvec.t) list -> unit
val tick : t -> unit
val cycle : t -> int
val value : t -> Netlist.signal -> Bitvec.t
val output : t -> string -> Bitvec.t
val stats : t -> Neteval.stats

val drive :
  t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int ->
  ((string * Bitvec.t) list * int, [ `Timeout ]) result
(** Clock until the 1-bit output [done_name] is set; mirrors
    {!Neteval.drive}. *)

(** {1 One-shot wrappers (mirror the {!Neteval} API)} *)

val eval_combinational_stats :
  ?probe:Neteval.probe -> Netlist.t -> inputs:(string * Bitvec.t) list ->
  (string * Bitvec.t) list * Neteval.stats

val eval_combinational :
  Netlist.t -> inputs:(string * Bitvec.t) list -> (string * Bitvec.t) list

val run_until_done_stats :
  ?probe:Neteval.probe -> Netlist.t -> inputs:(string * Bitvec.t) list ->
  done_name:string -> max_cycles:int ->
  ((string * Bitvec.t) list * int * Neteval.stats, [ `Timeout ]) result

val run_until_done :
  Netlist.t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int ->
  ((string * Bitvec.t) list * int, [ `Timeout ]) result
