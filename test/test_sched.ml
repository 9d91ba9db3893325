(* Scheduling layer tests: list scheduling legality, ASAP/ALAP/slack,
   timing constraints, modulo scheduling (pipelining) and the ILP-limit
   machinery. *)

let lower src ~entry =
  let program = Typecheck.parse_and_check src in
  let lowered = Lower.lower_program program ~entry in
  fst (Simplify.simplify lowered.Lower.func)

let straightline_instrs func =
  Array.to_list func.Cir.fn_blocks |> List.concat_map (fun b -> b.Cir.instrs)

let fir_block =
  lower
    {|
    int mem[4];
    int f(int a, int b, int c, int d) {
      int p0 = a * b;
      int p1 = c * d;
      int p2 = a * d;
      int s0 = p0 + p1;
      int s1 = s0 + p2;
      mem[0] = s1;
      int back = mem[1];
      return s1 ^ back;
    }
    |}
    ~entry:"f"

(* A schedule is legal iff every dependence edge is honored given the
   backend contract (same-step order-preserving execution). *)
let check_legal ?(mem_forwarding = false) instrs (sched : Schedule.schedule) =
  let g = Dep.of_instrs instrs in
  let arr = Array.of_list instrs in
  List.iter
    (fun (e : Dep.edge) ->
      let s = sched.Schedule.steps.(e.Dep.src)
      and d = sched.Schedule.steps.(e.Dep.dst) in
      match e.Dep.kind with
      | Dep.Raw | Dep.War | Dep.Waw ->
        Alcotest.(check bool) "register dep order" true (s <= d)
      | Dep.Mem ->
        let store_to_load =
          (match Cir.memory_access arr.(e.Dep.src) with
          | Some (_, `Write) -> true
          | _ -> false)
          && match Cir.memory_access arr.(e.Dep.dst) with
             | Some (_, `Read) -> true
             | _ -> false
        in
        if store_to_load && not mem_forwarding then
          Alcotest.(check bool) "store->load crosses a step" true (s < d)
        else Alcotest.(check bool) "mem dep order" true (s <= d))
    g.Dep.edges

let test_list_schedule_legal () =
  let instrs = straightline_instrs fir_block in
  List.iter
    (fun resources ->
      check_legal instrs (Schedule.list_schedule fir_block resources instrs))
    [ Schedule.unconstrained; Schedule.default_allocation;
      { Schedule.default_allocation with Schedule.multipliers = Some 1;
        chain_budget = 5. } ]

let test_resource_limits_respected () =
  let instrs = straightline_instrs fir_block in
  let resources =
    { Schedule.default_allocation with Schedule.multipliers = Some 1 }
  in
  let sched = Schedule.list_schedule fir_block resources instrs in
  (* at most one multiply per step *)
  let arr = Array.of_list instrs in
  let mults_in_step = Hashtbl.create 8 in
  Array.iteri
    (fun i step ->
      if Schedule.class_of_instr arr.(i) = Schedule.Multiplier then
        Hashtbl.replace mults_in_step step
          (1 + Option.value (Hashtbl.find_opt mults_in_step step) ~default:0))
    sched.Schedule.steps;
  Hashtbl.iter
    (fun _ count ->
      Alcotest.(check bool) "one multiplier per step" true (count <= 1))
    mults_in_step;
  (* the 3 multiplies need at least 3 steps *)
  Alcotest.(check bool) "constrained schedule is longer" true
    (sched.Schedule.num_steps
    >= (Schedule.list_schedule fir_block Schedule.unconstrained instrs)
         .Schedule.num_steps)

let test_asap_alap_slack () =
  let instrs = straightline_instrs fir_block in
  let slack = Schedule.slack fir_block instrs in
  Array.iter
    (fun s -> Alcotest.(check bool) "slack >= 0" true (s >= 0))
    slack;
  (* at least one operation on the critical path *)
  Alcotest.(check bool) "some zero-slack op" true
    (Array.exists (fun s -> s = 0) slack)

let test_chaining_budget () =
  let instrs = straightline_instrs fir_block in
  let tight =
    Schedule.list_schedule fir_block
      { Schedule.unconstrained with Schedule.chain_budget = 1. }
      instrs
  in
  let loose =
    Schedule.list_schedule fir_block
      { Schedule.unconstrained with Schedule.chain_budget = 1000. }
      instrs
  in
  Alcotest.(check bool) "tight budget needs more steps" true
    (tight.Schedule.num_steps > loose.Schedule.num_steps);
  Array.iter
    (fun d ->
      Alcotest.(check bool) "loose chaining keeps delay reasonable" true
        (d <= 1000.))
    loose.Schedule.step_delay

(* --- timing constraints --- *)

let test_constraints () =
  let program =
    Typecheck.parse_and_check
      {|
      int f(int a, int b) {
        int r = 0;
        constrain(1, 2) {
          int p = a * b;
          int q = a + b;
          r = p ^ q;
        }
        return r;
      }
      |}
  in
  let lowered = Lower.lower_program program ~entry:"f" in
  let constraints = Constrain.of_lowering lowered.Lower.constraints in
  Alcotest.(check int) "one constraint" 1 (List.length constraints);
  let c = List.hd constraints in
  let blk = Cir.block lowered.Lower.func c.Constrain.block in
  let sched =
    Schedule.list_schedule lowered.Lower.func Schedule.unconstrained
      blk.Cir.instrs
  in
  let statuses = Constrain.check constraints ~block:c.Constrain.block sched in
  Alcotest.(check int) "one status" 1 (List.length statuses);
  let s = List.hd statuses in
  Alcotest.(check bool) "unconstrained chaining meets 2 cycles" true
    (s.Constrain.actual_cycles <= 2)

let test_hardwarec_exploration () =
  (* a tight constraint forces the explorer to a bigger allocation *)
  let src =
    {|
    int f(int a, int b, int c, int d) {
      int r = 0;
      constrain(1, 2) {
        int p0 = a * b;
        int p1 = c * d;
        int p2 = (a + c) * (b + d);
        int p3 = (a - c) * (b - d);
        r = (p0 + p1) ^ (p2 + p3);
      }
      return r;
    }
    |}
  in
  let program = Typecheck.parse_and_check src in
  let design, report = Hardwarec.compile program ~entry:"f" in
  Alcotest.(check bool) "constraints satisfied after exploration" true
    (List.for_all
       (fun s ->
         s.Constrain.actual_cycles <= s.Constrain.constraint_.Constrain.max_cycles)
       report.Hardwarec.statuses);
  (* and the design still computes the right value *)
  let expected = Interp.run_int src ~entry:"f" ~args:[ 3; 5; 7; 9 ] in
  Alcotest.(check (option int)) "exploration preserves semantics"
    (Some expected)
    (Design.run_int design [ 3; 5; 7; 9 ])

(* --- pipelining --- *)

let test_pipeline_regular_loop () =
  let func =
    lower
      {|
      int va[64];
      int vb[64];
      int f(int n) {
        int acc = 0;
        for (int i = 0; i < 64; i = i + 1) {
          acc = acc + va[i] * vb[i];
        }
        return acc + n;
      }
      |}
      ~entry:"f"
  in
  let r = Pipeline.modulo_schedule func in
  Alcotest.(check bool) "II is small" true (r.Pipeline.ii <= 3);
  Alcotest.(check bool)
    (Printf.sprintf "pipelining speeds up the regular loop (%.2fx)"
       r.Pipeline.speedup)
    true (r.Pipeline.speedup > 1.5);
  Alcotest.(check bool) "II >= RecMII" true (r.Pipeline.ii >= r.Pipeline.rec_mii);
  Alcotest.(check bool) "II >= ResMII" true (r.Pipeline.ii >= r.Pipeline.res_mii)

let test_pipeline_recurrence_bound () =
  (* gcd: the division sits on the loop-carried dependence cycle, so RecMII
     is dominated by the divider latency and pipelining buys ~nothing *)
  let func =
    lower
      "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }"
      ~entry:"f"
  in
  let r = Pipeline.modulo_schedule func in
  Alcotest.(check bool)
    (Printf.sprintf "division recurrence bounds II (rec_mii=%d)"
       r.Pipeline.rec_mii)
    true
    (r.Pipeline.rec_mii >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "speedup stays small (%.2f)" r.Pipeline.speedup)
    true (r.Pipeline.speedup < 1.6)

let test_pipeline_rejects_irregular () =
  (* data-dependent branch inside the loop body -> irregular *)
  let func =
    lower
      {|
      int data[16];
      int f(int n) {
        int acc = 0;
        for (int i = 0; i < 16; i = i + 1) {
          if (data[i] > n) { acc = acc + 1; } else { acc = acc - data[i]; }
        }
        return acc;
      }
      |}
      ~entry:"f"
  in
  (* note: the ?: would be if-converted to a mux by lowering, but an
     explicit if/else with different side effects keeps real control flow *)
  match Pipeline.modulo_schedule func with
  | exception Pipeline.Irregular _ -> ()
  | _ -> Alcotest.fail "expected the irregular loop to be rejected"

let test_pipeline_ii_divergence_falls_back () =
  (* Regression: a loop whose ResMII exceeds the II search limit (4096)
     used to abort the whole compile with [failwith "modulo scheduling:
     II diverged"].  4100 loads through one single-read-port region give
     ResMII = 4100, so the search starts past the limit; the loop must
     now come back unpipelined with [fallback = true] and bump the
     process-wide counter the driver layers export as
     sched.modulo.fallbacks.  Independent accumulators keep RecMII tiny
     so only the resource bound diverges. *)
  let n_stmts = 410 and loads_per_stmt = 10 in
  let stmt s =
    let loads =
      List.init loads_per_stmt (fun k ->
          Printf.sprintf "buf[(i + %d) & 7]" ((s * loads_per_stmt) + k))
    in
    Printf.sprintf "s%d = s%d + %s;" s s (String.concat " + " loads)
  in
  let src =
    Printf.sprintf
      {|
      int buf[8];
      int f(int n) {
        %s
        for (int i = 0; i < 4; i = i + 1) {
          %s
        }
        return s0;
      }
      |}
      (String.concat "\n        "
         (List.init n_stmts (fun s -> Printf.sprintf "int s%d = n;" s)))
      (String.concat "\n          " (List.init n_stmts stmt))
  in
  let func = lower src ~entry:"f" in
  let before = Pipeline.fallback_count () in
  let r = Pipeline.modulo_schedule func in
  Alcotest.(check bool)
    (Printf.sprintf "ResMII diverges past the search limit (res_mii=%d)"
       r.Pipeline.res_mii)
    true
    (r.Pipeline.res_mii > Pipeline.ii_search_limit);
  Alcotest.(check bool) "the loop falls back instead of dying" true
    r.Pipeline.fallback;
  Alcotest.(check int) "fallback counter bumped" (before + 1)
    (Pipeline.fallback_count ());
  Alcotest.(check int) "II degenerates to the sequential schedule"
    r.Pipeline.sequential_cycles r.Pipeline.ii;
  Alcotest.(check (float 1e-9)) "speedup is exactly 1.0" 1.0
    r.Pipeline.speedup

(* --- ILP limits --- *)

let matmul_trace =
  lazy
    (let func = lower (Workloads.matmul).Workloads.source ~entry:"matmul" in
     Ilp_limits.trace_of func ~args:[ 3 ])

let test_ilp_monotone_in_window () =
  let trace = Lazy.force matmul_trace in
  let ipc w renaming =
    (Ilp_limits.measure trace
       { Ilp_limits.window = w; renaming; speculation = `Perfect })
      .Ilp_limits.ipc
  in
  let widths = [ 1; 4; 16; 64; 256 ] in
  let series = List.map (fun w -> ipc w true) widths in
  List.iter2
    (fun a b -> Alcotest.(check bool) "IPC grows with window" true (a <= b +. 1e-9))
    (List.filteri (fun i _ -> i < List.length series - 1) series)
    (List.tl series);
  (* window of 1 is sequential *)
  Alcotest.(check bool) "window 1 is ~1 IPC" true (ipc 1 true <= 1.0 +. 1e-9)

let test_ilp_renaming_helps () =
  let trace = Lazy.force matmul_trace in
  let with_renaming =
    Ilp_limits.measure trace
      { Ilp_limits.window = 64; renaming = true; speculation = `Perfect }
  and without =
    Ilp_limits.measure trace
      { Ilp_limits.window = 64; renaming = false; speculation = `Perfect }
  in
  Alcotest.(check bool) "renaming never hurts" true
    (with_renaming.Ilp_limits.ipc >= without.Ilp_limits.ipc -. 1e-9)

let test_ilp_speculation_matters () =
  let trace = Lazy.force matmul_trace in
  let _, no_spec, dataflow = Ilp_limits.sweep ~windows:[ 16 ] trace in
  Alcotest.(check bool) "no-speculation is slower than dataflow" true
    (no_spec.Ilp_limits.ipc <= dataflow.Ilp_limits.ipc +. 1e-9);
  Alcotest.(check bool) "dataflow limit is finite and > 1" true
    (dataflow.Ilp_limits.ipc > 1.)

(* --- CFG simplification --- *)

let test_simplify_equivalence () =
  List.iter
    (fun (w : Workloads.t) ->
      let program = Workloads.parse w in
      let lowered = Lower.lower_program program ~entry:w.Workloads.entry in
      let simplified, _ = Simplify.simplify lowered.Lower.func in
      Alcotest.(check bool) "fewer blocks" true
        (Cir.num_blocks simplified <= Cir.num_blocks lowered.Lower.func);
      List.iter
        (fun args ->
          let expected = Workloads.reference w args in
          let outcome =
            Cir_interp.run simplified ~args:(Design.int_args args)
          in
          Alcotest.(check int)
            (Printf.sprintf "simplify preserves %s" w.Workloads.name)
            expected
            (Bitvec.to_int (Option.get outcome.Cir_interp.return_value)))
        w.Workloads.arg_sets)
    Workloads.sequential

(* --- differential: production schedulers vs the reference copies --- *)

(* The allocations the differential tests cover: the backends' default,
   no limits (ASAP), no chaining (the modulo scheduler's sequential
   baseline) and register-file memories with one adder. *)
let allocations =
  [ ("default", Schedule.default_allocation);
    ("unconstrained", Schedule.unconstrained);
    ("chain 0.1", { Schedule.default_allocation with Schedule.chain_budget = 0.1 });
    ("forwarding + 1 adder",
     { Schedule.default_allocation with
       Schedule.mem_forwarding = true; adders = Some 1 }) ]

(* Every allocation on every block of [func]; [None] when all agree, else
   a description of the first difference. *)
let list_schedule_diff func =
  List.find_map
    (fun (blk : Cir.block) ->
      List.find_map
        (fun (label, resources) ->
          let got = Schedule.list_schedule func resources blk.Cir.instrs
          and want = Sched_ref.list_schedule func resources blk.Cir.instrs in
          if got = want then None
          else
            Some
              (Printf.sprintf "%s: block %d (%d instrs) under %s"
                 func.Cir.fn_name blk.Cir.b_id
                 (List.length blk.Cir.instrs) label))
        allocations)
    (Array.to_list func.Cir.fn_blocks)

(* The modulo result fields the two implementations must agree on (speedup
   follows from ii and sequential_cycles), plus the dependence edges as a
   multiset; an irregular loop must be rejected by both. *)
let modulo_outcome ~schedule ~extract func =
  match extract func Pipeline.default_latency with
  | exception Pipeline.Irregular msg -> Error msg
  | (body : Pipeline.loop_body) ->
    let r : Pipeline.result = schedule func in
    Ok
      ( ( r.Pipeline.rec_mii, r.Pipeline.res_mii, r.Pipeline.ii,
          r.Pipeline.schedule_length, r.Pipeline.sequential_cycles,
          r.Pipeline.fallback ),
        List.sort compare body.Pipeline.edges )

let modulo_agrees func =
  modulo_outcome func
    ~schedule:(fun f -> Pipeline.modulo_schedule f)
    ~extract:Pipeline.extract_loop
  = modulo_outcome func
      ~schedule:(fun f -> Sched_ref.modulo_schedule f)
      ~extract:Sched_ref.extract_loop

(* Each corpus kernel through every lowering backend's pass pipeline;
   pipelines that reject a kernel are skipped. *)
let corpus_funcs =
  lazy
    (List.concat_map
       (fun (w : Workloads.t) ->
         let program = Workloads.parse w in
         List.filter_map
           (fun b ->
             match Registry.pipeline b with
             | Some pl when pl.Passes.pl_lowers -> (
               match
                 Passes.run ~options:Passes.default_options pl program
                   ~entry:w.Workloads.entry
               with
               | lowered, _ ->
                 Some (w.Workloads.name, Registry.name b, lowered.Lower.func)
               | exception _ -> None)
             | Some _ | None -> None)
           (Registry.compiling ()))
       Workloads.all)

let test_list_schedule_matches_reference () =
  let funcs = Lazy.force corpus_funcs in
  Alcotest.(check bool) "every corpus kernel lowers somewhere" true
    (List.length funcs >= List.length Workloads.all);
  List.iter
    (fun (kernel, backend, func) ->
      match list_schedule_diff func with
      | None -> ()
      | Some d -> Alcotest.failf "%s via %s: %s" kernel backend d)
    funcs

let test_modulo_matches_reference () =
  List.iter
    (fun (kernel, backend, func) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s via %s: modulo result and edges" kernel backend)
        true (modulo_agrees func))
    (Lazy.force corpus_funcs)

(* --- differential: dependence graphs and FSMDs vs the reference builders --- *)

let same_graph (got : Dep.graph) (want : Dep.graph) =
  got.Dep.edges = want.Dep.edges
  && got.Dep.preds = want.Dep.preds
  && got.Dep.succs = want.Dep.succs

(* The block scheduling policies of the FSMD backends: list schedules
   (default allocation and ASAP), one state per block, per assignment and
   per instruction, and HardwareC's padding of blocks that finish under a
   min-cycle constraint (here every other block gains two empty steps). *)
let fsmd_policies func =
  let list resources (blk : Cir.block) =
    Schedule.list_schedule func resources blk.Cir.instrs
  in
  let padded (blk : Cir.block) =
    let sched = list Schedule.default_allocation blk in
    if blk.Cir.b_id mod 2 = 1 then sched
    else
      { sched with
        Schedule.num_steps = sched.Schedule.num_steps + 2;
        step_delay = Array.append sched.Schedule.step_delay [| 0.; 0. |] }
  in
  [ ("default", false, list Schedule.default_allocation);
    ("unconstrained", false, list Schedule.unconstrained);
    ("transmogrifier", true, Fsmd.transmogrifier_schedule func);
    ("handelc", false, Fsmd.handelc_schedule func);
    ("serial", false, Fsmd.serial_schedule func);
    ("hardwarec padded", false, padded) ]

(* Dep.of_instrs and of_instrs_renamed on every block of [func], then
   Fsmd.of_func under every policy, against the reference builders;
   [None] when all agree, else the first difference. *)
let builders_diff func =
  let dep_diff (blk : Cir.block) =
    let instrs = blk.Cir.instrs in
    if
      same_graph (Dep.of_instrs instrs) (Build_ref.dep_of_instrs instrs)
      && same_graph (Dep.of_instrs_renamed instrs)
           (Build_ref.dep_of_instrs_renamed instrs)
    then None
    else
      Some
        (Printf.sprintf "%s: block %d (%d instrs) dependence graph"
           func.Cir.fn_name blk.Cir.b_id (List.length instrs))
  in
  let fsmd_diff (label, mem_forwarding, schedule_block) =
    let got = Fsmd.of_func ~mem_forwarding func ~schedule_block
    and want = Build_ref.fsmd_of_func ~mem_forwarding func ~schedule_block in
    if got.Fsmd.states = want.Fsmd.states && got.Fsmd.entry = want.Fsmd.entry
    then None
    else Some (Printf.sprintf "%s: FSMD under %s" func.Cir.fn_name label)
  in
  match List.find_map dep_diff (Array.to_list func.Cir.fn_blocks) with
  | Some d -> Some d
  | None -> List.find_map fsmd_diff (fsmd_policies func)

(* A loop kernel over straight-line code.  [`Resource]: independent
   accumulators fed by multiplies and memory reads, so ResMII binds.
   [`Recurrence]: each accumulator updated six times per iteration
   through logic, plus a few stores, so RecMII binds. *)
let big_kernel family ~stmts =
  let accs = match family with `Resource -> stmts / 2 | `Recurrence -> stmts / 6 in
  let b = Buffer.create (stmts * 40) in
  Buffer.add_string b "int mem[16];\nint k(int n) {\n";
  for a = 0 to accs - 1 do
    Printf.bprintf b "  int a%d = n + %d;\n" a a
  done;
  Buffer.add_string b "  for (int i = 0; i < 3; i = i + 1) {\n";
  for s = 0 to stmts - 1 do
    let a = s mod accs and c = (s * 7919) mod 1000 in
    match family, s mod 3 with
    | `Resource, 0 -> Printf.bprintf b "    a%d = a%d + (i * %d);\n" a a c
    | `Resource, 1 -> Printf.bprintf b "    a%d = a%d + mem[%d];\n" a a (c land 15)
    | `Resource, _ -> Printf.bprintf b "    a%d = a%d - (n * %d);\n" a a c
    | `Recurrence, 0 -> Printf.bprintf b "    a%d = a%d ^ (i & %d);\n" a a c
    | `Recurrence, 1 when s mod 100 = 1 ->
      Printf.bprintf b "    mem[%d] = a%d;\n" (c land 15) a
    | `Recurrence, 1 -> Printf.bprintf b "    a%d = a%d | (n & %d);\n" a a c
    | `Recurrence, _ -> Printf.bprintf b "    a%d = a%d ^ %d;\n" a a c
  done;
  Buffer.add_string b "  }\n  int r = 0;\n";
  for a = 0 to accs - 1 do
    Printf.bprintf b "  r = r ^ a%d;\n" a
  done;
  Buffer.add_string b "  return r;\n}\n";
  lower (Buffer.contents b) ~entry:"k"

let test_big_kernels_match_reference () =
  List.iter
    (fun (name, family, stmts) ->
      let func = big_kernel family ~stmts in
      let body = Pipeline.extract_loop func Pipeline.default_latency in
      Alcotest.(check bool)
        (Printf.sprintf "%s loop has ~1k instructions (%d)" name
           (Array.length body.Pipeline.instrs))
        true
        (Array.length body.Pipeline.instrs >= 1000);
      let r = Pipeline.modulo_schedule func in
      let bound =
        match family with
        | `Resource -> r.Pipeline.res_mii > r.Pipeline.rec_mii
        | `Recurrence -> r.Pipeline.rec_mii > r.Pipeline.res_mii
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s is %s-bound (rec %d, res %d)" name name
           r.Pipeline.rec_mii r.Pipeline.res_mii)
        true bound;
      Alcotest.(check bool) (name ^ ": modulo result and edges") true
        (modulo_agrees func);
      Option.iter Alcotest.fail
        (match list_schedule_diff func with
        | None -> builders_diff func
        | Some d -> Some d))
    [ ("ResMII", `Resource, 400); ("RecMII", `Recurrence, 450) ]

let prop_schedules_match_reference =
  QCheck.Test.make ~name:"schedulers match the reference on random programs"
    ~count:100 Test_random.arb_program (fun src ->
      let func = lower src ~entry:"f" in
      (match list_schedule_diff func with
      | None -> ()
      | Some d -> QCheck.Test.fail_reportf "%s on:\n%s" d src);
      modulo_agrees func
      || QCheck.Test.fail_reportf "modulo results differ on:\n%s" src)

let test_builders_match_reference () =
  List.iter
    (fun (kernel, backend, func) ->
      match builders_diff func with
      | None -> ()
      | Some d -> Alcotest.failf "%s via %s: %s" kernel backend d)
    (Lazy.force corpus_funcs)

let prop_builders_match_reference =
  QCheck.Test.make
    ~name:"dep graphs and FSMDs match the reference on random programs"
    ~count:100 Test_random.arb_program (fun src ->
      match builders_diff (lower src ~entry:"f") with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s on:\n%s" d src)

let suite =
  ( "sched",
    [ Alcotest.test_case "list schedule legality" `Quick
        test_list_schedule_legal;
      Alcotest.test_case "resource limits" `Quick
        test_resource_limits_respected;
      Alcotest.test_case "asap/alap slack" `Quick test_asap_alap_slack;
      Alcotest.test_case "chaining budget" `Quick test_chaining_budget;
      Alcotest.test_case "timing constraints" `Quick test_constraints;
      Alcotest.test_case "hardwarec exploration" `Quick
        test_hardwarec_exploration;
      Alcotest.test_case "pipeline regular loop" `Quick
        test_pipeline_regular_loop;
      Alcotest.test_case "pipeline recurrence bound" `Quick
        test_pipeline_recurrence_bound;
      Alcotest.test_case "pipeline rejects irregular" `Quick
        test_pipeline_rejects_irregular;
      Alcotest.test_case "pipeline II divergence falls back" `Quick
        test_pipeline_ii_divergence_falls_back;
      Alcotest.test_case "ILP monotone in window" `Quick
        test_ilp_monotone_in_window;
      Alcotest.test_case "ILP renaming helps" `Quick test_ilp_renaming_helps;
      Alcotest.test_case "ILP speculation matters" `Quick
        test_ilp_speculation_matters;
      Alcotest.test_case "simplify equivalence" `Quick
        test_simplify_equivalence;
      Alcotest.test_case "list schedule matches reference" `Quick
        test_list_schedule_matches_reference;
      Alcotest.test_case "modulo schedule matches reference" `Quick
        test_modulo_matches_reference;
      Alcotest.test_case "1k-instr kernels match reference" `Quick
        test_big_kernels_match_reference;
      QCheck_alcotest.to_alcotest prop_schedules_match_reference;
      Alcotest.test_case "dep graphs and FSMDs match reference" `Quick
        test_builders_match_reference;
      QCheck_alcotest.to_alcotest prop_builders_match_reference ] )
