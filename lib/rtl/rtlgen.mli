(** FSMD -> netlist elaboration: a binary-encoded state register, one
    datapath operator per scheduled instruction instance, per-register
    write muxes, and one RAM per region with a muxed write port.

    Protocol: virtual INIT (reset; loads parameter registers from input
    ports) and DONE (absorbing) states are appended; outputs are
    ["result"], ["done"] and one ["g_<name>"] per scalar global.  The
    elaborated design takes exactly one cycle more than the FSMD
    simulator (the INIT cycle). *)

exception Elaboration_error of string
(** Raised for designs the RAM model cannot express: two stores to one
    region in a state, or forwarding (register-file) memories. *)

type elaborated = {
  netlist : Netlist.t;
  done_state : int;
  init_state : int;
}

val elaborate : Fsmd.t -> elaborated

val simulate :
  ?max_cycles:int -> elaborated ->
  args:Bitvec.t list -> func:Cir.func ->
  ((string * Bitvec.t) list * int, [ `Timeout ]) result
(** Run the elaborated netlist to completion on the {!Neteval} reference
    evaluator: (outputs, cycles). *)

val simulate_stats :
  ?max_cycles:int -> ?probe:Neteval.probe ->
  elaborated ->
  args:Bitvec.t list -> func:Cir.func ->
  ((string * Bitvec.t) list * int * Neteval.stats, [ `Timeout ]) result
(** Like [simulate] but also returns the evaluator's counters and accepts
    an observation probe (see {!Neteval.probe}). *)
