(* The in-process workloads, compare-cold and big-kernels.

   One operation is one program's full compare on the user path: a fresh
   Driver session with the design cache cleared and no store attached,
   Driver.compile_all over every compiling backend, every accepted design
   run on every vector with the default engine and checked against
   Driver.reference, and the area read.  big-kernels adds the analyze
   steps (lowering, Pipeline.extract_loop + modulo_schedule,
   Bitwidth.infer).

   A run repeats whole passes over the seeded input set until --seconds
   is spent.  The traced run alternates untraced and traced passes: the
   pairs give the tracing overhead, the traced passes the per-layer
   figures.  Layers the Driver path does not expose separately (list
   scheduling, FSMD elaboration, each pipeline's Passes.run) are timed by
   side calls on the same program under a separate "probe" root span, so
   they never count toward an operation's wall time. *)

open Pb_util

type tally = {
  mutable ops : int;
  mutable failed_ops : int;
  mutable problems : string list;
  mutable verified : int;  (* designs that matched the oracle on every vector *)
  mutable rejects : int;  (* typed dialect rejections: expected *)
  mutable cycles : float list;
  mutable areas : float list;
  mutable periods : float list;
  mutable iis : float list;
  mutable sim_cycles : int;
  mutable dep_edges : int;
  mutable fallbacks : int;
  mutable oracle_calls : int;
  mutable op_ms : (string * float) list;  (* program name, latency *)
}

let tally () =
  { ops = 0; failed_ops = 0; problems = []; verified = 0; rejects = 0;
    cycles = []; areas = []; periods = []; iis = [];
    sim_cycles = 0; dep_edges = 0; fallbacks = 0; oracle_calls = 0;
    op_ms = [] }

(* What must repeat exactly from pass to pass over the same inputs. *)
let signature t =
  ( (t.verified, t.rejects, t.sim_cycles, t.dep_edges, t.fallbacks),
    (sum t.cycles, sum t.areas, sum t.periods, sum t.iis) )

let backends () = Registry.compiling ()

let instr_count (f : Cir.func) =
  Array.fold_left (fun n b -> n + List.length b.Cir.instrs) 0 f.Cir.fn_blocks

(* --- one operation ----------------------------------------------------- *)

(* The analyze steps of big-kernels, as `chlsc analyze` runs them. *)
let analyze_step t ~ctx program ~entry =
  let lowered, _ =
    Span.span ctx "lower" (fun _ -> Passes.lower_simplify program ~entry)
  in
  let func = lowered.Lower.func in
  let before = Pipeline.fallback_count () in
  let edges, r =
    Span.span ctx "modulo" (fun _ ->
        let body = Pipeline.extract_loop func Pipeline.default_latency in
        (List.length body.Pipeline.edges, Pipeline.modulo_schedule func))
  in
  t.dep_edges <- t.dep_edges + edges;
  t.iis <- float_of_int r.Pipeline.ii :: t.iis;
  t.fallbacks <- t.fallbacks + Pipeline.fallback_count () - before;
  ignore (Span.span ctx "bitwidth" (fun _ -> Bitwidth.infer func))

let run_op t ~ctx ~analyze (p : Pb_gen.program) =
  let t0 = now () in
  let bad = ref false in
  let fail msg =
    bad := true;
    if List.length t.problems < 20 then
      t.problems <- Printf.sprintf "%s: %s" p.Pb_gen.name msg :: t.problems
  in
  let show = function Some v -> string_of_int v | None -> "none" in
  let check_design bname (d : Design.t) expected =
    let ok = ref true in
    List.iter2
      (fun args exp ->
        let r = Design.run_traced ~ctx d (Design.int_args args) in
        let got = Option.map Bitvec.to_int r.Design.result in
        if got <> exp || exp = None then begin
          ok := false;
          fail (Printf.sprintf "%s returned %s, oracle %s" bname (show got) (show exp))
        end;
        Option.iter
          (fun c ->
            t.sim_cycles <- t.sim_cycles + c;
            t.cycles <- float_of_int c :: t.cycles)
          r.Design.cycles)
      p.Pb_gen.vectors expected;
    Option.iter
      (fun a -> t.areas <- a.Area.total_area :: t.areas)
      (Span.span ctx "area" (fun _ -> d.Design.area ()));
    Option.iter (fun c -> t.periods <- c :: t.periods) d.Design.clock_period;
    if !ok then t.verified <- t.verified + 1
  in
  Driver.clear_cache ();
  let s = Driver.create ~entry:p.Pb_gen.entry p.Pb_gen.source in
  (try
     match Driver.program ~ctx s with
     | Error e -> fail ("frontend: " ^ Driver.render_error e)
     | Ok program ->
       let expected =
         List.map
           (fun args ->
             t.oracle_calls <- t.oracle_calls + 1;
             match Driver.reference ~ctx s ~args with
             | Ok v -> Some v
             | Error e ->
               fail ("oracle: " ^ Driver.render_error e);
               None)
           p.Pb_gen.vectors
       in
       List.iter
         (fun (b, verdict) ->
           match verdict with
           | Ok d -> check_design (Registry.name b) d expected
           | Error (Driver.Dialect_reject _) -> t.rejects <- t.rejects + 1
           | Error e -> fail (Driver.render_error e))
         (Driver.compile_all ~ctx ~backends:(backends ()) s);
       if analyze then analyze_step t ~ctx program ~entry:p.Pb_gen.entry
   with e -> fail ("raised " ^ Printexc.to_string e));
  t.ops <- t.ops + 1;
  if !bad then t.failed_ops <- t.failed_ops + 1;
  t.op_ms <- (p.Pb_gen.name, ms_since t0) :: t.op_ms

(* Each program's latency as the median over the passes that ran it: the
   percentiles are then taken over programs, so one pass that the host
   slowed down cannot set the tail. *)
let op_medians samples =
  let by = Hashtbl.create 1024 in
  List.iter
    (fun (name, ms) ->
      Hashtbl.replace by name (ms :: Option.value (Hashtbl.find_opt by name) ~default:[]))
    samples;
  Hashtbl.fold (fun _ l acc -> median l :: acc) by []

(* --- side probes of the layers the Driver path hides ------------------- *)

type probe = {
  mutable instrs_out : int;
  mutable list_ops : int;
  mutable states : int;
  mutable nodes : int;
  mutable p_iis : float list;
  mutable p_edges : int;
  mutable p_fallbacks : int;
}

let probe_acc () =
  { instrs_out = 0; list_ops = 0; states = 0; nodes = 0; p_iis = [];
    p_edges = 0; p_fallbacks = 0 }

(* Passes.run of each lowering backend's pipeline; the bachc pipeline's
   output then goes through list scheduling of every block (default
   allocation), modulo scheduling of its innermost loop (when [modulo])
   and FSMD elaboration to a netlist.  Layers that reject the program
   (pointers, irregular loops, unsupported RAM shapes) are skipped: the
   probes measure cost, the operation measures correctness. *)
let probe pr ~ctx ~modulo program ~entry =
  let lowered =
    List.fold_left
      (fun keep b ->
        match Registry.pipeline b with
        | Some pl when pl.Passes.pl_lowers -> (
          match
            Span.span ctx "passes" (fun _ ->
                Passes.run ~options:Passes.default_options pl program ~entry)
          with
          | r, _ ->
            pr.instrs_out <- pr.instrs_out + instr_count r.Lower.func;
            if Registry.name b = "bachc" then Some r.Lower.func else keep
          | exception _ -> keep)
        | _ -> keep)
      None (backends ())
  in
  match lowered with
  | None -> ()
  | Some func ->
    let scheds = Hashtbl.create 16 in
    Span.span ctx "list-sched" (fun _ ->
        Array.iter
          (fun (blk : Cir.block) ->
            pr.list_ops <- pr.list_ops + List.length blk.Cir.instrs;
            Hashtbl.replace scheds blk.Cir.b_id
              (Schedule.list_schedule func Schedule.default_allocation
                 blk.Cir.instrs))
          func.Cir.fn_blocks);
    if modulo then begin
      let before = Pipeline.fallback_count () in
      (match
        Span.span ctx "probe-modulo" (fun _ ->
            let body = Pipeline.extract_loop func Pipeline.default_latency in
            (List.length body.Pipeline.edges, Pipeline.modulo_schedule func))
      with
      | edges, r ->
        pr.p_edges <- pr.p_edges + edges;
        pr.p_iis <- float_of_int r.Pipeline.ii :: pr.p_iis
      | exception _ -> ());
      pr.p_fallbacks <- pr.p_fallbacks + Pipeline.fallback_count () - before
    end;
    match
      Span.span ctx "rtl" (fun _ ->
          let fsmd =
            Fsmd.of_func func ~schedule_block:(fun blk ->
                Hashtbl.find scheds blk.Cir.b_id)
          in
          (Fsmd.num_states fsmd, Rtlgen.elaborate fsmd))
    with
    | states, e ->
      pr.states <- pr.states + states;
      pr.nodes <- pr.nodes + Netlist.length e.Rtlgen.netlist
    | exception _ -> ()

(* --- set-up ------------------------------------------------------------ *)

(* What a fresh process pays before its first useful answer: module
   initialisation (registry, lazy tables) plus one gcd compare. *)
let warm_up () =
  let w = Workloads.gcd in
  let s = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  let args = List.hd w.Workloads.arg_sets in
  List.iter
    (fun (_, r) ->
      match r with
      | Ok (d : Design.t) ->
        ignore (Design.run_int d args);
        ignore (d.Design.area ())
      | Error _ -> ())
    (Driver.compile_all ~backends:(backends ()) s);
  ignore (Driver.reference s ~args)

let setup_repeats = 31

(* Median wall time of [setup_repeats] fresh processes of this executable
   running [warm_up] and exiting. *)
let measure_setup () =
  let samples =
    List.init setup_repeats (fun _ ->
        let t0 = now () in
        let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pid =
          Unix.create_process Sys.executable_name
            [| Sys.executable_name; "--setup-probe" |]
            null null Unix.stderr
        in
        Unix.close null;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> failwith "set-up probe process failed");
        now () -. t0)
  in
  median samples

(* --- the run ----------------------------------------------------------- *)

type outcome = {
  result_tally : tally;
      (* ops, failures and latencies of every pass; the deterministic
         outputs of one pass *)
  pass_ms : float list;  (* untraced passes, in reference-host ms *)
  pass_rates : float list;  (* verified designs per second, untraced passes *)
  traced_pass_ms : float list;
  spans : Pb_trace.acc;
  probes : probe;
  wire : Pb_serve.wire option;  (* traced run only *)
  gc : gc_delta;  (* summed over the untraced passes *)
  setup_s : float;
}

let run ~seed ~inputs ~analyze ~seconds ~trace =
  let s0 = Pb_calib.speed () in
  let setup_raw = measure_setup () in
  let s1 = Pb_calib.speed () in
  let setup_s = setup_raw *. (s0 +. s1) /. 2. in
  Printf.eprintf "perfbench: set-up %.6f s raw\n%!" setup_raw;
  warm_up ();
  let all = tally () in
  let spans = Pb_trace.create () and probes = probe_acc () in
  let pass_ms = ref [] and traced_pass_ms = ref [] and pass_rates = ref [] in
  let first_sig = ref None in
  let check_sig t =
    let s = signature t in
    match !first_sig with
    | None -> first_sig := Some s
    | Some s0 ->
      if s <> s0 then
        all.problems <- "deterministic outputs differ between passes" :: all.problems
  in
  let merge (p : tally) =
    all.ops <- all.ops + p.ops;
    all.failed_ops <- all.failed_ops + p.failed_ops;
    all.problems <- p.problems @ all.problems;
    all.op_ms <- p.op_ms @ all.op_ms
  in
  let gc = ref gc_zero in
  (* host speed right before the next timed pass (see Pb_calib) *)
  let speed = ref s1 in
  (* Time one pass, calibrate after it, and express the pass and its
     operations in reference-host time. *)
  let timed_pass record run =
    let p = tally () in
    let t0 = now () in
    run p;
    let raw = ms_since t0 in
    let s1 = Pb_calib.speed () in
    let f = (!speed +. s1) /. 2. in
    speed := s1;
    Printf.eprintf "perfbench: pass %.1f ms raw, host speed %.3f\n%!" raw f;
    record := (raw *. f) :: !record;
    p.op_ms <- List.map (fun (n, ms) -> (n, ms *. f)) p.op_ms;
    check_sig p;
    merge p;
    p
  in
  let untraced_pass () =
    Span.set_enabled false;
    let g0 = gc_snapshot () in
    let p =
      timed_pass pass_ms (fun p -> List.iter (run_op p ~ctx:Span.null ~analyze) inputs)
    in
    gc := gc_add !gc (gc_delta g0 (gc_snapshot ()));
    pass_rates := (float_of_int p.verified /. (List.hd !pass_ms /. 1000.)) :: !pass_rates;
    p
  in
  let traced_pass () =
    Span.set_enabled true;
    let p =
      timed_pass traced_pass_ms (fun p ->
          List.iter
            (fun (prog : Pb_gen.program) ->
              let tr, ctx = Span.start ~trace_id:prog.Pb_gen.name ~kind:"op" () in
              run_op p ~ctx ~analyze prog;
              Span.finish tr;
              Pb_trace.add_span_trace spans tr)
            inputs)
    in
    Span.set_enabled false;
    p
  in
  (* once, after the first traced pass, so the probes' allocation never
     lands inside a timed pass of the first round *)
  let probe_pass () =
    Span.set_enabled true;
    List.iter
      (fun (prog : Pb_gen.program) ->
        match Typecheck.parse_and_check prog.Pb_gen.source with
        | program ->
          let tr, ctx = Span.start ~trace_id:prog.Pb_gen.name ~kind:"probe" () in
          probe probes ~ctx ~modulo:(not analyze) program ~entry:prog.Pb_gen.entry;
          Span.finish tr;
          Pb_trace.add_span_trace spans tr
        | exception _ -> ())
      inputs;
    Span.set_enabled false
  in
  let deadline = now () +. seconds in
  let round () =
    let t0 = now () in
    let p = untraced_pass () in
    if trace then ignore (traced_pass ());
    (p, now () -. t0)
  in
  let first, took = round () in
  if trace then begin
    probe_pass ();
    speed := Pb_calib.speed ()
  end;
  (* whole rounds while the next one is expected to end in time *)
  let rec loop took =
    if now () +. took <= deadline then loop (snd (round ()))
  in
  loop took;
  let wire =
    if trace then
      Some (Fun.protect ~finally:Pb_serve.cleanup (fun () -> Pb_serve.wire_probe ~seed inputs))
    else None
  in
  Option.iter
    (fun (w : Pb_serve.wire) ->
      all.ops <- all.ops + w.Pb_serve.w_tally.Pb_serve.attempted;
      all.failed_ops <- all.failed_ops + w.Pb_serve.w_tally.Pb_serve.failed;
      all.problems <- w.Pb_serve.w_tally.Pb_serve.problems @ all.problems)
    wire;
  let result_tally =
    { all with rejects = first.rejects;
               cycles = first.cycles; areas = first.areas;
               periods = first.periods; iis = first.iis;
               sim_cycles = first.sim_cycles; dep_edges = first.dep_edges;
               fallbacks = first.fallbacks; oracle_calls = first.oracle_calls }
  in
  { result_tally; pass_ms = !pass_ms; pass_rates = !pass_rates;
    traced_pass_ms = !traced_pass_ms;
    spans; probes; wire;
    gc = !gc;
    setup_s }
