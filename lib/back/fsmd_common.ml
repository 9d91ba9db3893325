(* Shared plumbing for the FSMD-producing backends (Transmogrifier C,
   Bach C/Cyber, HardwareC): run the backend's declared pipeline through
   the pass manager, build an FSMD under the backend's scheduling policy,
   and wrap simulator + elaboration into a Design.t. *)

(* Engine-dispatched FSMD simulation wrapped into a Design.run_result.
   Compiled runs Fsmdcomp's closure engine (which itself falls back to
   Rtlsim on >62-bit designs); Reference runs the Rtlsim interpreter. *)
let simulate ~engine ?vcd ?(sim = Design.Compiled) fsmd ~args :
    Design.run_result =
  let trace = Option.map (fun v -> Trace.rtlsim_trace v fsmd) vcd in
  let outcome =
    match sim with
    | Design.Compiled -> Fsmdcomp.execute ?trace (Lazy.force engine) ~args
    | Design.Reference -> Rtlsim.run ?trace fsmd ~args
  in
  let metrics = Metrics.create () in
  Metrics.set_string metrics "sim.engine"
    (match sim with
    | Design.Compiled when Fsmdcomp.compiled (Lazy.force engine) -> "compiled"
    | Design.Compiled | Design.Reference -> "reference");
  Metrics.set_int metrics "sim.cycles" outcome.Rtlsim.cycles;
  Metrics.set metrics "sim.states_visited"
    (Metrics.List
       (Array.to_list
          (Array.map (fun n -> Metrics.Int n) outcome.Rtlsim.states_visited)));
  { Design.result = outcome.Rtlsim.return_value;
    globals = outcome.Rtlsim.globals;
    memories = outcome.Rtlsim.memories;
    cycles = Some outcome.Rtlsim.cycles;
    time_units = None;
    metrics }

(* The compiled engine is built once and reuses its arrays on every run,
   and a lazy must not be forced from two domains at once, so each run
   and each structural view holds the design's lock: a design shared
   through the cache stays correct across serve domains. *)
let design ~backend ~name ~stats ~pass_trace fsmd : Design.t =
  let lock = Design.new_lock () in
  let engine = lazy (Fsmdcomp.create fsmd) in
  let run ?vcd ?sim args =
    Design.with_lock lock (fun () -> simulate ~engine ?vcd ?sim fsmd ~args)
  in
  let elaborated = lazy (Rtlgen.elaborate fsmd) in
  let view f () =
    Design.with_lock lock (fun () ->
        match Lazy.force elaborated with
        | e -> Some (f e.Rtlgen.netlist)
        | exception Rtlgen.Elaboration_error _ -> None)
  in
  { Design.design_name = name;
    backend;
    run;
    area = view Area.analyze;
    verilog = view Verilog.to_string;
    netlist = view Fun.id;
    clock_period = Some (Float.max 1. (Fsmd.critical_state_delay fsmd));
    stats;
    pass_trace }

let build ~backend_name ~dialect ?(mem_forwarding = false) ?pipeline
    ?(knobs = Backend.default_knobs)
    ~(schedule_block : Cir.func -> Cir.block -> Schedule.schedule)
    ?(extra_stats = fun (_ : Lower.result) (_ : Fsmd.t) -> [])
    (program : Ast.program) ~entry : Design.t =
  Backend.reject_if_illegal ~backend:backend_name dialect program;
  let pipeline =
    match pipeline with
    | Some p -> p
    | None ->
      Passes.pipeline backend_name ~func_passes:[ Passes.simplify_pass ]
  in
  let pipeline = Backend.specialize knobs pipeline in
  let lowered, pass_trace =
    Passes.run ~options:knobs.Backend.pass_options pipeline program ~entry
  in
  let func = lowered.Lower.func in
  let fsmd =
    Fsmd.of_func ~mem_forwarding func ~schedule_block:(schedule_block func)
  in
  design ~backend:backend_name ~name:entry ~pass_trace fsmd
    ~stats:
      ([ ("states", string_of_int (Fsmd.num_states fsmd));
         ("instructions", string_of_int (Cir.num_instrs func));
         ("regions", string_of_int (Array.length func.Cir.fn_regions)) ]
      @ extra_stats lowered fsmd)
