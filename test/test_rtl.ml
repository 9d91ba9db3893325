(* RTL layer tests: FSMD construction, the cycle-accurate simulator's
   state accounting, netlist elaboration details (INIT/DONE protocol,
   write-port muxing, error cases) and Verilog emission hygiene. *)

let lower src ~entry =
  let program = Typecheck.parse_and_check src in
  fst (Simplify.simplify (Lower.lower_program program ~entry).Lower.func)

let gcd_func =
  lower
    "int gcd(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } return a; }"
    ~entry:"gcd"

let default_fsmd func =
  Fsmd.of_func func ~schedule_block:(fun blk ->
      Schedule.list_schedule func Schedule.default_allocation blk.Cir.instrs)

let test_fsmd_state_structure () =
  let fsmd = default_fsmd gcd_func in
  (* at least one state per block, entry state valid *)
  Alcotest.(check bool) "states cover blocks" true
    (Fsmd.num_states fsmd >= Cir.num_blocks gcd_func);
  Alcotest.(check bool) "entry in range" true
    (fsmd.Fsmd.entry >= 0 && fsmd.Fsmd.entry < Fsmd.num_states fsmd);
  (* every transition target is a valid state *)
  Array.iter
    (fun st ->
      match st.Fsmd.next with
      | Fsmd.N_goto t ->
        Alcotest.(check bool) "goto in range" true
          (t >= 0 && t < Fsmd.num_states fsmd)
      | Fsmd.N_branch { if_true; if_false; _ } ->
        Alcotest.(check bool) "branch in range" true
          (if_true >= 0 && if_true < Fsmd.num_states fsmd
          && if_false >= 0 && if_false < Fsmd.num_states fsmd)
      | Fsmd.N_halt _ -> ())
    fsmd.Fsmd.states

let test_serial_policy_one_instr_per_state () =
  let fsmd =
    Fsmd.of_func gcd_func ~schedule_block:(Fsmd.serial_schedule gcd_func)
  in
  Array.iter
    (fun st ->
      Alcotest.(check bool) "at most one action" true
        (List.length st.Fsmd.actions <= 1))
    fsmd.Fsmd.states

let test_rtlsim_state_profile () =
  let fsmd = default_fsmd gcd_func in
  let outcome =
    Rtlsim.run fsmd ~args:[ Bitvec.of_int ~width:64 54; Bitvec.of_int ~width:64 24 ]
  in
  (* the profile sums to the cycle count *)
  Alcotest.(check int) "profile sums to cycles" outcome.Rtlsim.cycles
    (Array.fold_left ( + ) 0 outcome.Rtlsim.states_visited);
  Alcotest.(check int) "gcd(54,24)" 6
    (Bitvec.to_int (Option.get outcome.Rtlsim.return_value))

let test_rtlsim_timeout () =
  let func =
    lower "int f(void) { while (1) { } return 0; }" ~entry:"f"
  in
  let fsmd = default_fsmd func in
  match Rtlsim.run ~max_cycles:100 fsmd ~args:[] with
  | exception Rtlsim.Timeout _ -> ()
  | _ -> Alcotest.fail "expected timeout"

let test_elaboration_init_done_protocol () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  (* the elaborated netlist takes exactly one more cycle than the FSMD
     simulator (the INIT state) *)
  let args = [ Bitvec.of_int ~width:64 1071; Bitvec.of_int ~width:64 462 ] in
  let rtl = Rtlsim.run fsmd ~args in
  match Rtlgen.simulate e ~args ~func:gcd_func with
  | Ok (outputs, cycles) ->
    Alcotest.(check int) "one INIT cycle overhead" (rtl.Rtlsim.cycles + 1)
      cycles;
    Alcotest.(check int) "same result" 21
      (Bitvec.to_int (List.assoc "result" outputs));
    Alcotest.(check int) "done asserted" 1
      (Bitvec.to_int_unsigned (List.assoc "done" outputs))
  | Error `Timeout -> Alcotest.fail "netlist timeout"

let test_elaboration_memory_write_mux () =
  (* a design with stores in several states still elaborates to a single
     muxed write port per memory *)
  let func =
    lower
      {|
      int buf[4];
      int f(int a) {
        buf[0] = a;
        buf[1] = a * 2;
        buf[2] = a * 3;
        return buf[0] + buf[1] + buf[2];
      }
      |}
      ~entry:"f"
  in
  let fsmd = default_fsmd func in
  let e = Rtlgen.elaborate fsmd in
  let nl = e.Rtlgen.netlist in
  Alcotest.(check int) "one memory" 1 (Array.length (Netlist.mems nl));
  Alcotest.(check bool) "write port connected" true
    ((Netlist.mems nl).(0).Netlist.write_port <> None);
  match Rtlgen.simulate e ~args:[ Bitvec.of_int ~width:64 5 ] ~func with
  | Ok (outputs, _) ->
    Alcotest.(check int) "muxed stores work" 30
      (Bitvec.to_int (List.assoc "result" outputs))
  | Error `Timeout -> Alcotest.fail "timeout"

(* A RAM has one write port: two stores to a region in one state (ASAP
   with unbounded ports puts both in the first step) are refused. *)
let test_elaboration_two_stores_one_state () =
  let func =
    lower "int buf[4]; int f(int a) { buf[0] = a; buf[1] = a; return a; }"
      ~entry:"f"
  in
  let fsmd =
    Fsmd.of_func func ~schedule_block:(fun blk ->
        Schedule.list_schedule func Schedule.unconstrained blk.Cir.instrs)
  in
  match Rtlgen.elaborate fsmd with
  | exception Rtlgen.Elaboration_error _ -> ()
  | _ -> Alcotest.fail "expected an elaboration error"

(* Thousands of stores to one region, one per state: the write port's
   mux chain elaborates and the netlist computes what Rtlsim does. *)
let test_elaboration_many_stores () =
  let stores = 2048 in
  let b = Buffer.create (stores * 24) in
  Buffer.add_string b "int buf[16];\nint f(int a) {\n";
  for i = 0 to stores - 1 do
    Printf.bprintf b "  buf[%d] = %d;\n" (i land 15) i
  done;
  Buffer.add_string b "  return buf[0] + buf[7] + buf[15] + a;\n}\n";
  let func = lower (Buffer.contents b) ~entry:"f" in
  let region_stores =
    Array.fold_left
      (fun acc (blk : Cir.block) ->
        acc
        + List.length
            (List.filter
               (function Cir.I_store _ -> true | _ -> false)
               blk.Cir.instrs))
      0 func.Cir.fn_blocks
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least %d stores (%d)" stores region_stores)
    true (region_stores >= stores);
  let fsmd =
    Fsmd.of_func func ~schedule_block:(Fsmd.serial_schedule func)
  in
  let rtl = Rtlsim.run fsmd ~args:[ Bitvec.of_int ~width:64 5 ] in
  let e = Rtlgen.elaborate fsmd in
  (* the compiled netlist engine: a 2k-deep write mux chain re-settles
     every cycle, which the reference interpreter takes seconds over *)
  Alcotest.(check bool) "compilable" true (Netcomp.compilable e.Rtlgen.netlist);
  match
    Netcomp.run_until_done e.Rtlgen.netlist
      ~inputs:
        (List.map
           (fun (name, r) -> (name, Bitvec.of_int ~width:(Cir.reg_width func r) 5))
           func.Cir.fn_params)
      ~done_name:"done" ~max_cycles:100_000
  with
  | Ok (outputs, cycles) ->
    Alcotest.(check int) "one INIT cycle overhead" (rtl.Rtlsim.cycles + 1)
      cycles;
    Alcotest.(check int) "same result"
      (Bitvec.to_int (Option.get rtl.Rtlsim.return_value))
      (Bitvec.to_int (List.assoc "result" outputs))
  | Error `Timeout -> Alcotest.fail "netlist timeout"

let test_verilog_hygiene () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let v = Verilog.to_string e.Rtlgen.netlist in
  let count_substring needle =
    let n = String.length needle and total = ref 0 in
    for i = 0 to String.length v - n do
      if String.sub v i n = needle then incr total
    done;
    !total
  in
  Alcotest.(check int) "exactly one module" 1 (count_substring "module gcd");
  Alcotest.(check int) "one endmodule" 1 (count_substring "endmodule");
  Alcotest.(check bool) "inputs declared" true
    (count_substring "input wire" >= 3); (* clk, a, b *)
  Alcotest.(check bool) "outputs declared" true
    (count_substring "output wire" >= 2); (* done, result *)
  (* no unprintable characters, no dangling assigns to w-1 *)
  Alcotest.(check int) "no negative signal names" 0 (count_substring "w-1")

let test_verilog_literals () =
  Alcotest.(check string) "bv literal"
    "8'hff"
    (Verilog.bv_literal (Bitvec.of_int ~width:8 255));
  Alcotest.(check string) "sanitize" "a_b_c" (Verilog.sanitize "a.b c")

let test_netlist_eval_combinational () =
  (* direct netlist building and evaluation *)
  let nl = Netlist.create ~name:"addmul" () in
  let a = Netlist.input nl "a" ~width:16 in
  let b = Netlist.input nl "b" ~width:16 in
  let sum = Netlist.binop nl Netlist.B_add a b in
  let prod = Netlist.binop nl Netlist.B_mul a b in
  let sel = Netlist.binop nl Netlist.B_ult a b in
  let out = Netlist.mux nl ~sel ~if_true:sum ~if_false:prod in
  Netlist.set_output nl "out" out;
  let eval a_v b_v =
    let outputs =
      Neteval.eval_combinational nl
        ~inputs:
          [ ("a", Bitvec.of_int ~width:16 a_v);
            ("b", Bitvec.of_int ~width:16 b_v) ]
    in
    Bitvec.to_int_unsigned (List.assoc "out" outputs)
  in
  Alcotest.(check int) "a<b: sum" 7 (eval 3 4);
  Alcotest.(check int) "a>=b: product" 12 (eval 4 3)

let test_netlist_sequential_counter () =
  (* a counter with enable, run via settle/tick *)
  let nl = Netlist.create ~name:"counter" () in
  let en = Netlist.input nl "en" ~width:1 in
  let count = Netlist.reg_forward nl ~init:(Bitvec.zero 8) in
  let one = Netlist.const_int nl ~width:8 1 in
  let next = Netlist.binop nl Netlist.B_add count one in
  Netlist.reg_connect nl count ~next ~enable:en ();
  Netlist.set_output nl "count" count;
  let sim = Neteval.create nl in
  let step en_v =
    Neteval.settle sim ~inputs:[ ("en", Bitvec.of_int ~width:1 en_v) ];
    let v = Bitvec.to_int_unsigned (Neteval.output sim "count") in
    Neteval.tick sim;
    v
  in
  (* fold_left guarantees left-to-right stepping (a list literal of calls
     would evaluate right to left) *)
  let observed =
    List.rev
      (List.fold_left (fun acc en -> step en :: acc) [] [ 1; 1; 0; 0; 1; 1 ])
  in
  Alcotest.(check (list int)) "enable gates counting"
    [ 0; 1; 2; 2; 2; 3 ] observed

let test_netlist_compiled_matches_reference () =
  (* the compiled engine must agree with the reference sweep on outputs,
     cycle count and the probe-visible change events; the reference
     evaluates every node on every settle *)
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let nl = e.Rtlgen.netlist in
  let args = [ Bitvec.of_int ~width:64 1071; Bitvec.of_int ~width:64 462 ] in
  let ignore_values = { Neteval.on_value = (fun ~cycle:_ _ _ -> ()) } in
  let ref_out, ref_cycles, rs =
    match Rtlgen.simulate_stats ~probe:ignore_values e ~args ~func:gcd_func with
    | Ok r -> r
    | Error `Timeout -> Alcotest.fail "reference timeout"
  in
  let inputs =
    List.map2
      (fun (name, r) v ->
        (name, Bitvec.resize ~signed:true ~width:(Cir.reg_width gcd_func r) v))
      gcd_func.Cir.fn_params args
  in
  let c_out, c_cycles, cs =
    match
      Netcomp.run_until_done_stats ~probe:ignore_values nl ~inputs
        ~done_name:"done" ~max_cycles:10_000
    with
    | Ok r -> r
    | Error `Timeout -> Alcotest.fail "compiled timeout"
  in
  Alcotest.(check int) "same cycle count" ref_cycles c_cycles;
  Alcotest.(check int) "same result" 21
    (Bitvec.to_int (List.assoc "result" c_out));
  List.iter2
    (fun (n1, v1) (n2, v2) ->
      Alcotest.(check string) "output order" n1 n2;
      Alcotest.(check bool) ("output " ^ n1 ^ " bit-exact") true
        (Bitvec.equal v1 v2))
    ref_out c_out;
  Alcotest.(check int) "same change events" rs.Neteval.events
    cs.Neteval.events;
  Alcotest.(check int) "reference evals = nodes x settles"
    (Netlist.length nl * rs.Neteval.settles)
    rs.Neteval.nodes_evaluated

let test_netlist_unknown_output_error () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let sim = Neteval.create e.Rtlgen.netlist in
  match Neteval.output sim "no_such_port" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the missing output" true
      (String.length msg > 0
      && (let contains needle =
            let n = String.length needle in
            let found = ref false in
            for i = 0 to String.length msg - n do
              if String.sub msg i n = needle then found := true
            done;
            !found
          in
          contains "no_such_port" && contains "done"))

let test_area_model_monotone () =
  (* wider operators must never be cheaper or faster *)
  List.iter
    (fun op ->
      let a8 = (Area.binop_cost op 8).Area.area
      and a32 = (Area.binop_cost op 32).Area.area in
      Alcotest.(check bool) "area grows with width" true (a32 >= a8);
      let d8 = (Area.binop_cost op 8).Area.delay
      and d32 = (Area.binop_cost op 32).Area.delay in
      Alcotest.(check bool) "delay grows with width" true (d32 >= d8))
    [ Netlist.B_add; Netlist.B_mul; Netlist.B_udiv; Netlist.B_shl;
      Netlist.B_slt; Netlist.B_and ];
  (* multiplier much bigger than adder at same width *)
  Alcotest.(check bool) "mul >> add" true
    ((Area.binop_cost Netlist.B_mul 32).Area.area
    > 4. *. (Area.binop_cost Netlist.B_add 32).Area.area)

let test_area_report_of_design () =
  let fsmd = default_fsmd gcd_func in
  let e = Rtlgen.elaborate fsmd in
  let report = Area.analyze e.Rtlgen.netlist in
  Alcotest.(check bool) "positive total" true (report.Area.total_area > 0.);
  Alcotest.(check bool) "has registers" true (report.Area.num_registers > 0);
  Alcotest.(check bool) "critical path positive" true
    (report.Area.critical_path > 0.);
  Alcotest.(check bool) "comb + reg + mem = total" true
    (Float.abs
       (report.Area.combinational_area +. report.Area.register_area
       +. report.Area.memory_area -. report.Area.total_area)
    < 1e-6)

let suite =
  ( "rtl",
    [ Alcotest.test_case "fsmd state structure" `Quick
        test_fsmd_state_structure;
      Alcotest.test_case "serial policy" `Quick
        test_serial_policy_one_instr_per_state;
      Alcotest.test_case "rtlsim state profile" `Quick
        test_rtlsim_state_profile;
      Alcotest.test_case "rtlsim timeout" `Quick test_rtlsim_timeout;
      Alcotest.test_case "elaboration INIT/DONE protocol" `Quick
        test_elaboration_init_done_protocol;
      Alcotest.test_case "elaboration memory write mux" `Quick
        test_elaboration_memory_write_mux;
      Alcotest.test_case "elaboration refuses two stores in one state" `Quick
        test_elaboration_two_stores_one_state;
      Alcotest.test_case "elaboration of 2k stores to one region" `Quick
        test_elaboration_many_stores;
      Alcotest.test_case "verilog hygiene" `Quick test_verilog_hygiene;
      Alcotest.test_case "verilog literals" `Quick test_verilog_literals;
      Alcotest.test_case "netlist combinational eval" `Quick
        test_netlist_eval_combinational;
      Alcotest.test_case "netlist sequential counter" `Quick
        test_netlist_sequential_counter;
      Alcotest.test_case "netlist compiled = reference" `Quick
        test_netlist_compiled_matches_reference;
      Alcotest.test_case "netlist unknown output error" `Quick
        test_netlist_unknown_output_error;
      Alcotest.test_case "area model monotone" `Quick test_area_model_monotone;
      Alcotest.test_case "area report" `Quick test_area_report_of_design ] )
