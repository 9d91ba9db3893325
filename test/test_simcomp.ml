(* Compiled-simulation equivalence: the closure engines must be
   indistinguishable from the interpreters they replace.

   Fsmdcomp (per-state closures over unboxed int register files) is
   checked against Rtlsim on the full outcome — return value, cycle
   count, globals, memories, per-state visit counts — and on the VCD
   change stream a shared trace hook produces.  Netcomp (levelized
   closure arrays) is checked against the Neteval reference on outputs,
   cycle counts and the probe-visible change stream, on the closure
   engine and on its >62-bit fallback.  Random programs
   (the test_random generator) drive the property versions; gcd,
   isqrt-newton and crc pin the workload corpus.  Divergence anywhere
   here is an engine bug, never noise — every quantity compared is
   deterministic. *)

let schedule func blk =
  Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs

let build src ~entry =
  let program = Typecheck.parse_and_check src in
  let lowered = Lower.lower_program program ~entry in
  let simplified, _ = Simplify.simplify lowered.Lower.func in
  let fsmd = Fsmd.of_func simplified ~schedule_block:(schedule simplified) in
  (simplified, fsmd, (Rtlgen.elaborate fsmd).Rtlgen.netlist)

let args_of ints = List.map (Bitvec.of_int ~width:64) ints

let named_eq eq a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, v1) (n2, v2) -> n1 = n2 && eq v1 v2) a b

let outcome_eq (a : Rtlsim.outcome) (b : Rtlsim.outcome) =
  (match (a.Rtlsim.return_value, b.Rtlsim.return_value) with
  | Some x, Some y -> Bitvec.equal x y
  | None, None -> true
  | _ -> false)
  && a.Rtlsim.cycles = b.Rtlsim.cycles
  && named_eq Bitvec.equal a.Rtlsim.globals b.Rtlsim.globals
  && named_eq
       (fun x y ->
         Array.length x = Array.length y && Array.for_all2 Bitvec.equal x y)
       a.Rtlsim.memories b.Rtlsim.memories
  && a.Rtlsim.states_visited = b.Rtlsim.states_visited

(* the VCD stream an FSMD run produces under the shared trace hook *)
let fsmd_vcd runner fsmd =
  let v = Vcd.create () in
  let trace = Trace.rtlsim_trace v fsmd in
  ignore (runner ~trace fsmd);
  Vcd.contents v

(* drive a netlist engine with a probe attached; returns outputs,
   cycles, and the VCD stream (None on timeout) *)
let netcomp_probed nl ~inputs =
  let v = Vcd.create () in
  let eng = Netcomp.create nl in
  Netcomp.set_probe eng (Trace.neteval_probe v nl);
  match Netcomp.drive eng ~inputs ~done_name:"done" ~max_cycles:200_000 with
  | Ok (out, cycles) -> Some (out, cycles, Vcd.contents v)
  | Error `Timeout -> None

let neteval_probed nl ~inputs =
  let v = Vcd.create () in
  let e = Neteval.create nl in
  Neteval.set_probe e (Trace.neteval_probe v nl);
  match Neteval.drive e ~inputs ~done_name:"done" ~max_cycles:200_000 with
  | Ok (out, cycles) -> Some (out, cycles, Vcd.contents v)
  | Error `Timeout -> None

let inputs_of func args =
  List.map2
    (fun (name, r) v ->
      (name, Bitvec.resize ~signed:true ~width:(Cir.reg_width func r) v))
    func.Cir.fn_params args

(* --- pinned workload corpus --- *)

let check_kernel (w : Workloads.t) () =
  let func, fsmd, nl =
    build w.Workloads.source ~entry:w.Workloads.entry
  in
  Alcotest.(check bool)
    (w.Workloads.name ^ " FSMD is compilable")
    true (Fsmdcomp.compilable fsmd);
  Alcotest.(check bool)
    (w.Workloads.name ^ " netlist is compilable")
    true (Netcomp.compilable nl);
  List.iter
    (fun int_args ->
      let args = args_of int_args in
      let oc = Fsmdcomp.run fsmd ~args in
      let oi = Rtlsim.run fsmd ~args in
      Alcotest.(check bool)
        (Printf.sprintf "%s: compiled outcome = interpreter outcome"
           w.Workloads.name)
        true (outcome_eq oc oi);
      Alcotest.(check string)
        (Printf.sprintf "%s: compiled VCD = interpreter VCD" w.Workloads.name)
        (fsmd_vcd (fun ~trace f -> Rtlsim.run ~trace f ~args) fsmd)
        (fsmd_vcd (fun ~trace f -> Fsmdcomp.run ~trace f ~args) fsmd);
      let inputs = inputs_of func args in
      match (netcomp_probed nl ~inputs, neteval_probed nl ~inputs) with
      | Some (c_out, c_cyc, c_vcd), Some (r_out, r_cyc, r_vcd) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: netlist outputs agree across engines"
             w.Workloads.name)
          true
          (named_eq Bitvec.equal c_out r_out);
        Alcotest.(check int)
          (Printf.sprintf "%s: netlist cycle counts agree" w.Workloads.name)
          r_cyc c_cyc;
        Alcotest.(check string)
          (Printf.sprintf "%s: compiled netlist VCD = reference VCD"
             w.Workloads.name)
          r_vcd c_vcd
      | _ -> Alcotest.fail (w.Workloads.name ^ ": a netlist engine timed out"))
    w.Workloads.arg_sets

(* --- engine reuse: one create, many executes --- *)

let test_fsmd_engine_reuse () =
  let w = Workloads.gcd in
  let _, fsmd, _ = build w.Workloads.source ~entry:w.Workloads.entry in
  let eng = Fsmdcomp.create fsmd in
  Alcotest.(check bool) "gcd runs on the closure engine" true
    (Fsmdcomp.compiled eng);
  List.iter
    (fun int_args ->
      let args = args_of int_args in
      let first = Fsmdcomp.execute eng ~args in
      let second = Fsmdcomp.execute eng ~args in
      Alcotest.(check bool) "re-executed run is identical" true
        (outcome_eq first second);
      Alcotest.(check bool) "reused engine matches a fresh interpreter" true
        (outcome_eq second (Rtlsim.run fsmd ~args)))
    w.Workloads.arg_sets;
  (* tracing one run must not perturb the next untraced one *)
  let args = args_of (List.hd w.Workloads.arg_sets) in
  let v = Vcd.create () in
  ignore (Fsmdcomp.execute eng ~trace:(Trace.rtlsim_trace v fsmd) ~args);
  Alcotest.(check bool) "post-trace run still matches the interpreter" true
    (outcome_eq (Fsmdcomp.execute eng ~args) (Rtlsim.run fsmd ~args))

let test_netlist_engine_reset () =
  let w = Workloads.crc in
  let func, _, nl = build w.Workloads.source ~entry:w.Workloads.entry in
  let eng = Netcomp.create nl in
  Alcotest.(check bool) "crc runs on the closure engine" true
    (Netcomp.compiled eng);
  List.iter
    (fun int_args ->
      let inputs = inputs_of func (args_of int_args) in
      let run () =
        Netcomp.reset eng;
        match
          Netcomp.drive eng ~inputs ~done_name:"done" ~max_cycles:200_000
        with
        | Ok r -> r
        | Error `Timeout -> Alcotest.fail "crc timed out"
      in
      let out1, cyc1 = run () in
      let out2, cyc2 = run () in
      Alcotest.(check int) "reset rewinds the cycle counter" cyc1 cyc2;
      Alcotest.(check bool) "reset reproduces the outputs" true
        (named_eq Bitvec.equal out1 out2))
    w.Workloads.arg_sets

(* --- the >62-bit fallback: Netcomp runs the reference sweep --- *)

let wide_src =
  "long wide(long a, int n) { long s = a; int i = 0; \
   while (i < n) { s = s * 1000003 + a; i = i + 1; } return s; }"

let test_netlist_wide_fallback () =
  let func, _, nl = build wide_src ~entry:"wide" in
  Alcotest.(check bool) "64-bit netlist is not compilable" false
    (Netcomp.compilable nl);
  let inputs = inputs_of func (args_of [ 0x1234_5678_9abc; 9 ]) in
  (match (netcomp_probed nl ~inputs, neteval_probed nl ~inputs) with
  | Some (c_out, c_cyc, c_vcd), Some (r_out, r_cyc, r_vcd) ->
    Alcotest.(check bool) "outputs = reference" true
      (named_eq Bitvec.equal c_out r_out);
    Alcotest.(check int) "cycles = reference" r_cyc c_cyc;
    Alcotest.(check string) "VCD = reference" r_vcd c_vcd
  | _ -> Alcotest.fail "wide kernel timed out");
  let eng = Netcomp.create nl in
  Alcotest.(check bool) "engine runs on the fallback" false
    (Netcomp.compiled eng);
  let run () =
    Netcomp.reset eng;
    let v = Vcd.create () in
    Netcomp.set_probe eng (Trace.neteval_probe v nl);
    match Netcomp.drive eng ~inputs ~done_name:"done" ~max_cycles:200_000 with
    | Ok (out, cycles) -> (out, cycles, Vcd.contents v)
    | Error `Timeout -> Alcotest.fail "wide kernel timed out"
  in
  let out1, cyc1, vcd1 = run () in
  let out2, cyc2, vcd2 = run () in
  Alcotest.(check int) "reset rewinds the cycle counter" cyc1 cyc2;
  Alcotest.(check bool) "reset reproduces the outputs" true
    (named_eq Bitvec.equal out1 out2);
  Alcotest.(check string) "reset reproduces the VCD" vcd1 vcd2

(* --- random programs: property versions of the same checks --- *)

let gen_inputs =
  QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)

let prop_fsmd_compiled_equals_interpreter =
  QCheck.Test.make
    ~name:"compiled FSMD engine = Rtlsim on random programs (outcome + VCD)"
    ~count:100
    (QCheck.pair Test_random.arb_program gen_inputs)
    (fun (src, (a, b)) ->
      let _, fsmd, _ = build src ~entry:"f" in
      let args = args_of [ a; b ] in
      let oc = Fsmdcomp.run fsmd ~args in
      let oi = Rtlsim.run fsmd ~args in
      if not (outcome_eq oc oi) then
        QCheck.Test.fail_reportf
          "compiled FSMD outcome diverged from Rtlsim on:\n%s\ninputs %d,%d"
          src a b
      else
        let vc = fsmd_vcd (fun ~trace f -> Fsmdcomp.run ~trace f ~args) fsmd in
        let vi = fsmd_vcd (fun ~trace f -> Rtlsim.run ~trace f ~args) fsmd in
        if vc <> vi then
          QCheck.Test.fail_reportf
            "compiled FSMD VCD diverged from Rtlsim on:\n%s\ninputs %d,%d" src
            a b
        else true)

let prop_netlist_engines_agree =
  QCheck.Test.make
    ~name:
      "compiled and reference netlist engines agree on random programs \
       (outputs + cycles + VCD)"
    ~count:100
    (QCheck.pair Test_random.arb_program gen_inputs)
    (fun (src, (a, b)) ->
      let func, _, nl = build src ~entry:"f" in
      let inputs = inputs_of func (args_of [ a; b ]) in
      match (netcomp_probed nl ~inputs, neteval_probed nl ~inputs) with
      | None, None -> true
      | Some (c_out, c_cyc, c_vcd), Some (r_out, r_cyc, r_vcd) ->
        if c_cyc <> r_cyc then
          QCheck.Test.fail_reportf
            "cycle counts diverged (compiled %d, reference %d) on:\n%s"
            c_cyc r_cyc src
        else if not (named_eq Bitvec.equal c_out r_out) then
          QCheck.Test.fail_reportf
            "outputs diverged between netlist engines on:\n%s\ninputs %d,%d"
            src a b
        else if c_vcd <> r_vcd then
          QCheck.Test.fail_reportf
            "probe change streams diverged between netlist engines on:\n\
             %s\ninputs %d,%d"
            src a b
        else true
      | _ ->
        QCheck.Test.fail_reportf "timeout under only some netlist engines on:\n%s"
          src)

let suite =
  ( "simcomp",
    [ Alcotest.test_case "pinned gcd equivalence" `Quick
        (check_kernel Workloads.gcd);
      Alcotest.test_case "pinned isqrt-newton equivalence" `Quick
        (check_kernel Workloads.isqrt_newton);
      Alcotest.test_case "pinned crc equivalence" `Quick
        (check_kernel Workloads.crc);
      Alcotest.test_case "FSMD engine reuse" `Quick test_fsmd_engine_reuse;
      Alcotest.test_case "netlist engine reset" `Quick
        test_netlist_engine_reset;
      Alcotest.test_case "netlist wide fallback" `Quick
        test_netlist_wide_fallback;
      QCheck_alcotest.to_alcotest prop_fsmd_compiled_equals_interpreter;
      QCheck_alcotest.to_alcotest prop_netlist_engines_agree ] )
