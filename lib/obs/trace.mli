(** Adapters from each simulator's observation hook to {!Vcd} waveforms,
    plus JSON views of traces the rest of the compiler produces.

    The simulators (Neteval, Rtlsim, Asim) live below this library in the
    dependency order, so they expose generic hooks and know nothing about
    VCD; this module does the naming, scoping and time bookkeeping. *)

val neteval_probe : Vcd.t -> Netlist.t -> Neteval.probe
(** Declare one VCD var per netlist signal (primary inputs under their
    port names, registers as [rN], everything else as [nN]; output names
    are aliases of their driving signals), end the definitions, and
    return a probe that logs every committed value change at the cycle it
    settled in.  [Neteval] and [Netcomp] fire it with the same change
    stream, so either engine writes the same waveform. *)

val rtlsim_trace : Vcd.t -> Fsmd.t -> Rtlsim.trace
(** Declare vars for the FSM state, every CIR register (parameter and
    global names where they exist, [rN] otherwise) and one
    [we]/[waddr]/[wdata] port triple per memory region, and return a
    per-cycle trace hook that logs the state taken, changed registers and
    memory writes. *)

val asim_tracer :
  ?scale:float ->
  Vcd.t -> Cir.func ->
  (time:float -> reg:Cir.reg -> value:Bitvec.t -> unit) * (unit -> unit)
(** [asim_tracer vcd func] is [(on_fire, finalize)]: the hook buffers
    token firings (which arrive in execution order, with real-valued
    completion times), and [finalize] stable-sorts them by time and
    writes the waveform, quantizing times by [scale] (default 10.0 —
    one VCD tick per 0.1 time units). *)

val json_of_pass_trace : Passes.trace -> Metrics.json
(** A machine-readable view of a pass-manager trace: one object per pass
    with the name, level, wall time and before/after IR sizes. *)
