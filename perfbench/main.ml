(* The repo benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   runs one workload (compare-cold or big-kernels) on inputs
   generated from the seed, checks every output against the interpreter
   oracle, and prints one JSON line last on stdout:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones (measured untraced); with --trace 1
   they are the per-layer ones from the traced run.  perfbench/README.md
   defines every metric. *)

open Pb_util

let backend_names () = Registry.names ()
  |> List.filter (fun n -> List.exists (fun b -> Registry.name b = n) (Registry.compiling ()))

(* Every per-layer metric with its unit, in print order.  A workload that
   does not exercise a layer reports 0 for it. *)
let per_layer_units () =
  [ ("front.parse_ms", "ms"); ("front.programs", "count");
    ("front.dialect_ms", "ms"); ("front.dialect_rejects", "count");
    ("front.interp_ms", "ms"); ("front.interp_calls", "count");
    ("front.interp_useful_ratio", "ratio");
    ("ir.passes_ms", "ms"); ("ir.instrs_out", "count");
    ("sched.list_ms", "ms"); ("sched.list_ops", "count");
    ("sched.modulo_ms", "ms"); ("sched.dep_edges", "count");
    ("sched.modulo_fallbacks", "count"); ("sched.ii_geomean", "cycles");
    ("rtl.elaborate_ms", "ms"); ("rtl.states", "count");
    ("rtl.netlist_nodes", "count"); ("back.compile_ms", "ms") ]
  @ List.map (fun b -> (Printf.sprintf "back.%s.compile_ms" b, "ms")) (backend_names ())
  @ [ ("hw.area_ms", "ms"); ("sim.run_ms", "ms"); ("sim.cycles", "cycles");
      ("sim.cycles_per_s", "1/s"); ("cache.front_hit_rate", "%");
      ("cache.store_hits", "count"); ("cache.store_puts", "count");
      ("cache.store_bytes", "bytes"); ("serve.queue_wait_p50_ms", "ms");
      ("serve.queue_wait_p99_ms", "ms"); ("serve.request_p99_ms", "ms");
      ("serve.client_p50_ms", "ms"); ("serve.client_p99_ms", "ms");
      ("serve.daemon_mean_ms", "ms"); ("serve.ready_ms", "ms");
      ("serve.daemon_peak_rss_mb", "MiB");
      ("gc.minor", "count"); ("gc.major", "count");
      ("gc.promoted_mwords", "Mwords"); ("obs.trace_overhead_pct", "%");
      ("obs.coverage_pct", "%") ]
  @ List.map (fun l -> (Printf.sprintf "self.%s_ms" l, "ms")) Pb_trace.self_layers

let end_to_end_units =
  [ ("setup_s", "s"); ("designs_per_s", "1/s");
    ("op_p50_ms", "ms"); ("op_p99_ms", "ms"); ("wall_s", "s");
    ("peak_rss_mb", "MiB"); ("hw_cycles_geomean", "cycles");
    ("hw_area_geomean", "area_units"); ("hw_period_geomean", "delay_units") ]

let emit ~attempted ~failed ~problems ~units values =
  List.iter (fun p -> prerr_endline ("perfbench: FAIL " ^ p)) problems;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name values) ~default:0. in
        let v = if Float.is_finite v then v else 0. in
        (name, v, unit))
      units
  in
  print_endline (render_result { attempted; failed; problems; metrics })

(* --- the in-process workloads ------------------------------------------ *)

let inproc ~seed ~inputs ~analyze ~seconds ~trace =
  let o = Pb_inproc.run ~seed ~inputs ~analyze ~seconds ~trace in
  let t = o.Pb_inproc.result_tally in
  let problems = List.rev t.Pb_inproc.problems in
  let attempted = t.Pb_inproc.ops and failed = t.Pb_inproc.failed_ops in
  if not trace then begin
    let ops = Pb_inproc.op_medians t.Pb_inproc.op_ms in
    emit ~attempted ~failed ~problems ~units:end_to_end_units
      [ ("setup_s", o.Pb_inproc.setup_s);
        ("designs_per_s", median o.Pb_inproc.pass_rates);
        ("op_p50_ms", percentile ops 50.);
        ("op_p99_ms", percentile ops 99.);
        ("wall_s", median o.Pb_inproc.pass_ms /. 1000.);
        ("peak_rss_mb", peak_rss_mb "self");
        ("hw_cycles_geomean", geomean t.Pb_inproc.cycles);
        ("hw_area_geomean", geomean t.Pb_inproc.areas);
        ("hw_period_geomean", geomean t.Pb_inproc.periods) ]
  end
  else begin
    let n = float_of_int (max 1 (List.length o.Pb_inproc.traced_pass_ms)) in
    let sp = o.Pb_inproc.spans and pr = o.Pb_inproc.probes in
    let w = Option.get o.Pb_inproc.wire in
    let wire = w.Pb_serve.w_spans in
    let per x = x /. n in
    let span k = per (Pb_trace.total sp k) in
    (* probes run once, after the first traced pass *)
    let probed k = Pb_trace.total sp k in
    let sim_ms = span "simulate" in
    let sim_cycles = float_of_int t.Pb_inproc.sim_cycles in
    let passes = float_of_int (List.length o.Pb_inproc.pass_ms) in
    emit ~attempted ~failed ~problems ~units:(per_layer_units ())
      ([ ("front.parse_ms", span "frontend");
         ("front.programs", float_of_int (List.length inputs));
         ("front.dialect_ms", span "dialect-check");
         ("front.dialect_rejects", float_of_int t.Pb_inproc.rejects);
         ("front.interp_ms", span "oracle");
         ("front.interp_calls", float_of_int t.Pb_inproc.oracle_calls);
         (* over the wire, where replayed requests re-run the oracle *)
         ("front.interp_useful_ratio",
          float_of_int w.Pb_serve.w_pairs
          /. float_of_int (max 1 (Pb_trace.count wire "oracle")));
         ("ir.passes_ms", probed "passes");
         ("ir.instrs_out", float_of_int pr.Pb_inproc.instrs_out);
         ("sched.list_ms", probed "list-sched");
         ("sched.list_ops", float_of_int pr.Pb_inproc.list_ops);
         ("sched.modulo_ms", span "modulo" +. probed "probe-modulo");
         ("sched.dep_edges",
          float_of_int (t.Pb_inproc.dep_edges + pr.Pb_inproc.p_edges));
         ("sched.modulo_fallbacks",
          float_of_int (t.Pb_inproc.fallbacks + pr.Pb_inproc.p_fallbacks));
         ("sched.ii_geomean", geomean (t.Pb_inproc.iis @ pr.Pb_inproc.p_iis));
         ("rtl.elaborate_ms", probed "rtl");
         ("rtl.states", float_of_int pr.Pb_inproc.states);
         ("rtl.netlist_nodes", float_of_int pr.Pb_inproc.nodes);
         ("back.compile_ms", span "backend") ]
      @ List.map
          (fun b -> (Printf.sprintf "back.%s.compile_ms" b, per (Pb_trace.by_backend sp b)))
          (backend_names ())
      @ [ ("hw.area_ms", span "area");
          ("sim.run_ms", sim_ms);
          ("sim.cycles", sim_cycles);
          ("sim.cycles_per_s", if sim_ms > 0. then sim_cycles /. (sim_ms /. 1000.) else 0.);
          ("cache.front_hit_rate",
           let lookups = w.Pb_serve.w_front_hits +. w.Pb_serve.w_front_misses in
           if lookups > 0. then 100. *. w.Pb_serve.w_front_hits /. lookups else 0.);
          ("cache.store_hits", w.Pb_serve.w_store_hits);
          ("cache.store_puts", w.Pb_serve.w_store_puts);
          ("cache.store_bytes", w.Pb_serve.w_store_bytes);
          ("serve.queue_wait_p50_ms", percentile (Pb_trace.durs wire "queue-wait") 50.);
          ("serve.queue_wait_p99_ms", percentile (Pb_trace.durs wire "queue-wait") 99.);
          ("serve.request_p99_ms", percentile (Pb_trace.durs wire "request") 99.);
          ("serve.client_p50_ms", percentile w.Pb_serve.w_lat 50.);
          ("serve.client_p99_ms", percentile w.Pb_serve.w_lat 99.);
          ("serve.daemon_mean_ms", w.Pb_serve.w_mean_ms);
          ("serve.ready_ms", w.Pb_serve.w_ready_ms);
          ("serve.daemon_peak_rss_mb", w.Pb_serve.w_daemon_rss_mb);
          ("gc.minor", o.Pb_inproc.gc.minor /. passes);
          ("gc.major", o.Pb_inproc.gc.major /. passes);
          ("gc.promoted_mwords", o.Pb_inproc.gc.promoted_mwords /. passes);
          ("obs.trace_overhead_pct",
           100. *. ((median o.Pb_inproc.traced_pass_ms /. median o.Pb_inproc.pass_ms) -. 1.));
          ("obs.coverage_pct", Pb_trace.coverage_pct sp) ]
      @ List.map
          (fun l -> (Printf.sprintf "self.%s_ms" l, per (Pb_trace.self sp l)))
          Pb_trace.self_layers)
  end

(* --- command line ------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload compare-cold|big-kernels --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  if args = [ "--setup-probe" ] then begin
    Pb_inproc.warm_up ();
    exit 0
  end;
  if args = [ "--calibrate" ] then begin
    Printf.printf "%.6f\n" (Pb_calib.kernel_ms ());
    exit 0
  end;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" and seed = int "seed" in
  let seconds = float_of_int (int "seconds") and trace = int "trace" = 1 in
  Printf.eprintf "perfbench: %s seed=%d seconds=%.0f trace=%b\n%!" workload seed
    seconds trace;
  let t0 = now () in
  let inputs () =
    let i =
      match workload with
      | "compare-cold" -> Pb_gen.compare_cold_set ~seed
      | _ -> List.map (fun k -> k.Pb_gen.kprog) (Pb_gen.big_kernel_set ~seed)
    in
    Printf.eprintf "perfbench: %d inputs generated in %.2f s\n%!" (List.length i)
      (now () -. t0);
    i
  in
  try
    match workload with
    | "compare-cold" -> inproc ~seed ~inputs:(inputs ()) ~analyze:false ~seconds ~trace
    | "big-kernels" -> inproc ~seed ~inputs:(inputs ()) ~analyze:true ~seconds ~trace
    | _ -> usage ()
  with Pb_serve.Dropped msg ->
    prerr_endline ("perfbench: FAIL the daemon stopped answering: " ^ msg);
    exit 1
