(** Netlist evaluator: combinational settling plus a cycle-accurate
    sequential stepper.  Registers and memories update between cycles with
    read-before-write semantics.

    Every settle re-evaluates every node in id order (a full sweep).  This
    is the netlist level's reference semantics: the compiled engine
    ({!Netcomp}) is checked against it bit for bit, and runs on it when a
    design is too wide to compile. *)

type probe = { on_value : cycle:int -> Netlist.signal -> Bitvec.t -> unit }
(** Observation hook, fired whenever a signal's settled value actually
    changes (the committed-change stream is exactly the VCD change
    list).  Probes observe only: they receive values after they are
    committed and cannot perturb the simulation — outcomes with a probe
    installed are bit-identical to outcomes without (tested by qcheck in
    test/test_obs.ml). *)

type stats = {
  mutable cycles : int;  (** clock edges ([tick]s) taken *)
  mutable settles : int;  (** settle passes *)
  mutable nodes_evaluated : int;  (** node evaluations across all settles *)
  mutable events : int;  (** evaluations whose value actually changed *)
  mutable wall_time : float;  (** seconds spent inside [run_until_done] *)
}

type t

val create : Netlist.t -> t

val set_probe : t -> probe -> unit
(** Install an observation hook on this evaluator instance. *)

val netlist : t -> Netlist.t

val apply_unop : Netlist.unop -> Bitvec.t -> Bitvec.t
val apply_binop : Netlist.binop -> Bitvec.t -> Bitvec.t -> Bitvec.t
(** The shared operator semantics (also used by the CIR/SSA/FSMD
    simulators, so every layer computes identically). *)

val settle : t -> inputs:(string * Bitvec.t) list -> unit
(** Settle all combinational values for the current cycle; missing inputs
    read as zero. *)

val value : t -> Netlist.signal -> Bitvec.t

val output_signal : t -> string -> Netlist.signal
(** Resolve an output name to its signal id (so polling loops can look the
    name up once, not per observation).
    @raise Invalid_argument on unknown output names, listing the outputs
    the netlist does have. *)

val output : t -> string -> Bitvec.t
(** @raise Invalid_argument on unknown output names. *)

val cycle : t -> int

val stats : t -> stats
(** Live performance counters for this evaluator instance. *)

val tick : t -> unit
(** Clock edge: commit register and memory updates. *)

val eval_combinational :
  Netlist.t -> inputs:(string * Bitvec.t) list -> (string * Bitvec.t) list
(** Evaluate a purely combinational netlist once; returns the outputs. *)

val eval_combinational_stats :
  ?probe:probe -> Netlist.t -> inputs:(string * Bitvec.t) list ->
  (string * Bitvec.t) list * stats
(** Like [eval_combinational] but also returns the evaluator counters. *)

val drive :
  t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int -> ((string * Bitvec.t) list * int, [ `Timeout ]) result
(** Clock an existing evaluator until the 1-bit output [done_name] is
    set; for callers that need the evaluator afterwards (probes).
    [run_until_done] is this plus [create]. *)

val run_until_done :
  Netlist.t -> inputs:(string * Bitvec.t) list -> done_name:string ->
  max_cycles:int ->
  ((string * Bitvec.t) list * int, [ `Timeout ]) result
(** Clock a sequential netlist until the 1-bit output [done_name] is set;
    returns the outputs and the cycle count.  The done output and the
    primary inputs are resolved to signal ids once, before the loop. *)

val run_until_done_stats :
  ?probe:probe -> Netlist.t -> inputs:(string * Bitvec.t) list ->
  done_name:string -> max_cycles:int ->
  ((string * Bitvec.t) list * int * stats, [ `Timeout ]) result
(** Like [run_until_done] but also returns the evaluator counters and
    accepts an observation probe. *)
