(* BENCH_simcomp: compiled (levelized closure) engines vs the
   interpreters, in cycles per second.

   The tentpole claim of the compiled-simulation work is 10-100x
   cycles/sec from letting the design build its own evaluator instead of
   walking graph structures every cycle.  This experiment measures every
   engine in the house on the full sequential workload suite:

   - compiled FSMD (Fsmdcomp): per-state closures over unboxed int
     register files, compiled once per design and reused — the engine
     Design.run dispatches to by default;
   - interpreting FSMD (Rtlsim): re-walks each state's instruction list
     every cycle;
   - compiled netlist (Netcomp): levelized closure arrays over the
     elaborated netlist, compiled once and reset between runs;
   - interpreting netlist (Neteval): the full-sweep reference the
     compiled netlist engine is checked against.

   The headline speedup column is the default compiled engine against
   the netlist reference interpreter — the same design simulated
   cycle-accurately both ways (the netlist run takes one extra cycle for
   the done handshake; each engine's cycles/sec uses its own cycle
   count).  The same-level ratios (Fsmdcomp/Rtlsim, Netcomp/Neteval)
   are in the JSON too, so the abstraction-level contribution is never
   hidden.

   Every benchmarked run is first verified against its interpreting
   oracle (full outcome equality at the FSMD level: result, cycles,
   globals, memories, state visits; outputs and cycles at the netlist
   level) — speed without the cross-check is how semantics drift in.
   Results go to BENCH_simcomp.json through the unified metrics
   registry. *)

let kernels = Workloads.sequential

type row = {
  name : string;
  args : int list;
  fsmd_cycles : int;
  net_cycles : int;
  compiled : bool; (* both closure engines, not the width fallbacks *)
  fsmd_comp_cps : float; (* Fsmdcomp, precompiled *)
  fsmd_interp_cps : float; (* Rtlsim *)
  net_comp_cps : float; (* Netcomp, precompiled *)
  net_ref_cps : float; (* Neteval full sweep *)
  verified : bool;
}

let lowered (w : Workloads.t) =
  let program = Workloads.parse w in
  let l, _ = Passes.lower_simplify program ~entry:w.Workloads.entry in
  l.Lower.func

let fsmd_of func =
  Fsmd.of_func func ~schedule_block:(fun blk ->
      Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs)

(* Seconds per run, from an adaptively repeated loop: Sys.time has
   coarse granularity, so repeat until the measured window is at least
   ~50ms (the counters are deterministic; only wall time varies). *)
let time_runs f =
  ignore (f ());
  let rec go repeats =
    let t0 = Sys.time () in
    for _ = 1 to repeats do
      ignore (f ())
    done;
    let dt = Sys.time () -. t0 in
    if dt < 0.05 && repeats < 1 lsl 16 then go (repeats * 4)
    else dt /. float_of_int repeats
  in
  go 1

let bv_opt_eq a b =
  match (a, b) with
  | Some x, Some y -> Bitvec.equal x y
  | None, None -> true
  | _ -> false

let named_eq eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, v1) (n2, v2) -> n1 = n2 && eq v1 v2) a b

let run_kernel (w : Workloads.t) =
  let func = lowered w in
  let fsmd = fsmd_of func in
  let nl = (Rtlgen.elaborate fsmd).Rtlgen.netlist in
  let int_args = List.hd w.Workloads.arg_sets in
  let args = List.map (Bitvec.of_int ~width:64) int_args in
  (* same argument resizing Rtlgen.simulate uses *)
  let inputs =
    List.map2
      (fun (name, r) v ->
        (name, Bitvec.resize ~signed:true ~width:(Cir.reg_width func r) v))
      func.Cir.fn_params args
  in
  (* compile once; the timed loops reuse these engines *)
  let feng = Fsmdcomp.create fsmd in
  let neng = Netcomp.create nl in
  let run_fc () = Fsmdcomp.execute feng ~args in
  let run_fi () = Rtlsim.run fsmd ~args in
  let run_nc () =
    Netcomp.reset neng;
    Netcomp.drive neng ~inputs ~done_name:"done" ~max_cycles:2_000_000
  in
  let run_nr () =
    Neteval.run_until_done nl ~inputs ~done_name:"done" ~max_cycles:2_000_000
  in
  (* verify compiled = interpreting oracle at both levels before timing *)
  let oc = run_fc () and oi = run_fi () in
  let fsmd_ok =
    bv_opt_eq oc.Rtlsim.return_value oi.Rtlsim.return_value
    && oc.Rtlsim.cycles = oi.Rtlsim.cycles
    && named_eq Bitvec.equal oc.Rtlsim.globals oi.Rtlsim.globals
    && named_eq
         (fun a b ->
           Array.length a = Array.length b && Array.for_all2 Bitvec.equal a b)
         oc.Rtlsim.memories oi.Rtlsim.memories
    && oc.Rtlsim.states_visited = oi.Rtlsim.states_visited
  in
  match (run_nc (), run_nr ()) with
  | Ok (nc_out, nc_cycles), Ok (nr_out, nr_cycles) ->
    let net_ok = nc_cycles = nr_cycles && named_eq Bitvec.equal nc_out nr_out in
    let cps cycles t = float_of_int cycles /. Float.max 1e-9 t in
    { name = w.Workloads.name;
      args = int_args;
      fsmd_cycles = oc.Rtlsim.cycles;
      net_cycles = nc_cycles;
      compiled = Fsmdcomp.compiled feng && Netcomp.compiled neng;
      fsmd_comp_cps = cps oc.Rtlsim.cycles (time_runs run_fc);
      fsmd_interp_cps = cps oc.Rtlsim.cycles (time_runs run_fi);
      net_comp_cps = cps nc_cycles (time_runs run_nc);
      net_ref_cps = cps nc_cycles (time_runs run_nr);
      verified = fsmd_ok && net_ok }
  | _ -> failwith ("simcomp bench: " ^ w.Workloads.name ^ " timed out")

(* headline: the default compiled engine vs the netlist reference
   interpreter *)
let speedup r = r.fsmd_comp_cps /. Float.max 1e-9 r.net_ref_cps

let json_of_row r =
  Metrics.Obj
    [ ("kernel", Metrics.String r.name);
      ("args", Metrics.List (List.map (fun a -> Metrics.Int a) r.args));
      ("fsmd_cycles", Metrics.Int r.fsmd_cycles);
      ("netlist_cycles", Metrics.Int r.net_cycles);
      ("compiled_engines", Metrics.Bool r.compiled);
      ("fsmd_compiled_cycles_per_sec", Metrics.Fixed (0, r.fsmd_comp_cps));
      ("fsmd_interp_cycles_per_sec", Metrics.Fixed (0, r.fsmd_interp_cps));
      ("netlist_compiled_cycles_per_sec", Metrics.Fixed (0, r.net_comp_cps));
      ("netlist_reference_cycles_per_sec", Metrics.Fixed (0, r.net_ref_cps));
      ("speedup_vs_reference_interp", Metrics.Fixed (1, speedup r));
      ( "fsmd_compiled_vs_rtlsim",
        Metrics.Fixed (2, r.fsmd_comp_cps /. Float.max 1e-9 r.fsmd_interp_cps)
      );
      ( "netlist_compiled_vs_reference",
        Metrics.Fixed (2, r.net_comp_cps /. Float.max 1e-9 r.net_ref_cps) );
      ("verified_vs_interpreters", Metrics.Bool r.verified) ]

let emit_json path rows =
  let m = Metrics.create () in
  Metrics.set_string m "experiment"
    "compiled simulation: closure engines vs interpreters (cycles/sec)";
  Metrics.set m "kernels" (Metrics.List (List.map json_of_row rows));
  Metrics.write_file m path

let print_rows rows =
  Printf.printf "\ncycles/sec by engine (compiled engines precompiled):\n";
  let widths = [ 14; 7; 10; 10; 10; 10; 8; 9 ] in
  Tables.table widths
    [ "kernel"; "cycles"; "fsmd-comp"; "rtlsim"; "net-comp"; "net-ref";
      "speedup"; "verified" ]
    (List.map
       (fun r ->
         let m f = Printf.sprintf "%.2fM" (f /. 1e6) in
         [ r.name; Tables.i r.fsmd_cycles;
           m r.fsmd_comp_cps; m r.fsmd_interp_cps; m r.net_comp_cps;
           m r.net_ref_cps;
           Printf.sprintf "%.0fx" (speedup r);
           (if r.verified then "yes" else "NO") ])
       rows)

let run_kernels kernels =
  Tables.section "BENCH" "Compiled simulation: closure engines vs interpreters"
    "the design builds its own simulator — per-state closures at the FSMD \
     level, levelized closures at the netlist level — with the \
     interpreters kept as bit-exact differential oracles; speedup column \
     is the default compiled engine vs the netlist reference \
     interpreter";
  let rows = List.map run_kernel kernels in
  print_rows rows;
  List.iter
    (fun r ->
      if not r.verified then
        failwith
          (Printf.sprintf
             "simcomp bench: %s diverged from the interpreters — engine bug"
             r.name))
    rows;
  emit_json "BENCH_simcomp.json" rows;
  let fast = List.length (List.filter (fun r -> speedup r >= 10.) rows) in
  Printf.printf
    "\nAll runs verified against the interpreting oracles; %d/%d kernels \
     at >= 10x vs the netlist reference interpreter; wrote \
     BENCH_simcomp.json\n"
    fast (List.length rows)

let run_all () = run_kernels kernels

(* CI smoke: one kernel, same verification, same JSON artifact *)
let run_smoke () = run_kernels [ Workloads.gcd ]
