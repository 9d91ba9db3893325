(* The common result type of every synthesis backend.

   Backends produce wildly different artifacts — a pure combinational
   netlist (Cones), a scheduled FSMD (Transmogrifier/Bach C/HardwareC), a
   statement-clocked machine (Handel-C), an asynchronous dataflow circuit
   (CASH), a stack-machine processor (C2Verilog) — so a design exposes a
   uniform behavioural interface (run on inputs, observe outputs and
   timing) plus optional structural views (area report, Verilog). *)

(* Which simulation engine executes the behavioural run.  Compiled is
   the levelized-closure fast path (Netcomp / Fsmdcomp); Reference is the
   interpreter kept as its differential oracle (the full-sweep Neteval /
   instruction-walking Rtlsim).  Backends without a compiled engine (or
   without multiple engines at all) ignore the selection. *)
type engine = Compiled | Reference

let engine_name = function
  | Compiled -> "compiled"
  | Reference -> "reference"

(* "event" and "sweep" name the interpreter strategies the reference
   replaced; scripts, serve clients and config JSON may still send them *)
let engine_of_name = function
  | "compiled" -> Some Compiled
  | "reference" | "event" | "sweep" -> Some Reference
  | _ -> None

type run_result = {
  result : Bitvec.t option;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
  cycles : int option; (* clocked designs *)
  time_units : float option; (* asynchronous / combinational settle time *)
  metrics : Metrics.t;
      (* simulator performance counters for this run (cycles, state
         visits, token firings, evaluator activity) in the unified
         registry; --metrics-json merges it into the run report *)
}

type t = {
  design_name : string;
  backend : string;
  run : ?vcd:Vcd.t -> ?sim:engine -> Bitvec.t list -> run_result;
      (* [vcd]: trace the behavioural simulation as a waveform; backends
         whose simulator has no trace hook ignore it.
         [sim]: engine selection (default Compiled); backends with a
         single simulator ignore it *)
  area : unit -> Area.report option;
  verilog : unit -> string option;
  netlist : unit -> Netlist.t option;
      (* the word-level structural view, when the backend elaborates to one
         (area and Verilog derive from it; the CLI uses it for --stats) *)
  clock_period : float option; (* estimated; None for unclocked designs *)
  stats : (string * string) list; (* backend-specific key/value facts *)
  pass_trace : Passes.trace;
      (* per-pass compile record from the backend's declared pipeline;
         [] for structural backends that run no passes *)
}

let int_args args = List.map (Bitvec.of_int ~width:64) args

(* [run] behind a "simulate" span: engine kind and backend as attributes
   up front (so a crashed/timed-out run still identifies itself in the
   flight recorder), cycles and settle time attached after.  The span
   machinery adds an "error" attribute and re-raises on simulator
   exceptions (Rtlsim.Timeout and friends), so failure context survives
   into the ring buffer. *)
let run_traced ?(ctx = Span.null) ?vcd ?sim design args =
  Span.span ctx "simulate"
    ~attrs:
      [ ("backend", Metrics.String design.backend);
        ( "engine",
          Metrics.String (engine_name (Option.value sim ~default:Compiled)) )
      ]
    (fun sctx ->
      let r = design.run ?vcd ?sim args in
      (match r.cycles with
      | Some c -> Span.add_attr sctx "cycles" (Metrics.Int c)
      | None -> ());
      (match r.time_units with
      | Some t -> Span.add_attr sctx "time_units" (Metrics.Fixed (1, t))
      | None -> ());
      r)

(** Run with plain integer arguments; returns the result as an int. *)
let run_int design args =
  let r = design.run (int_args args) in
  Option.map Bitvec.to_int r.result

(** Wall-clock estimate of a run: cycles x clock period for clocked
    designs, the recorded settle/completion time otherwise. *)
let latency_estimate design (r : run_result) =
  match (r.cycles, design.clock_period, r.time_units) with
  | Some cycles, Some period, _ -> Some (float_of_int cycles *. period)
  | _, _, Some t -> Some t
  | _ -> None

(* Locks are striped over a fixed table and a design keeps only its
   stripe's index: the disk store marshals designs with their closures,
   and a mutex cannot be marshalled.  Designs that share a stripe only
   wait for each other. *)
let stripes = Array.init 64 (fun _ -> Mutex.create ())

let next_lock = Atomic.make 0

type lock = int

let new_lock () = Atomic.fetch_and_add next_lock 1 mod Array.length stripes

let with_lock lock f = Mutex.protect stripes.(lock) f
