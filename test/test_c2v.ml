(* C2Verilog stack-machine specifics: code generation, the processor's
   Verilog view, the runtime stack under recursion, the heap, and failure
   modes. *)

let compile src = C2verilog.compile_program (Typecheck.parse_and_check src)

let design src ~entry =
  C2v_machine.compile (Typecheck.parse_and_check src) ~entry

let test_codegen_shape () =
  let compiled = compile "int f(int a) { return a + 1; }" ~entry:"f" in
  Alcotest.(check bool) "has code" true
    (Array.length compiled.C2verilog.code > 0);
  (* first instruction of a function is its frame setup *)
  (match compiled.C2verilog.code.(compiled.C2verilog.entry_pc) with
  | C2verilog.Enter _ -> ()
  | _ -> Alcotest.fail "entry must start with Enter");
  (* exactly one Ret per straight-line function body (plus the implicit
     fallback) *)
  let rets =
    Array.to_list compiled.C2verilog.code
    |> List.filter (fun i ->
           match i with C2verilog.Ret _ -> true | _ -> false)
    |> List.length
  in
  Alcotest.(check int) "explicit + implicit return" 2 rets

let test_comparison_normalization () =
  (* Gt/Ge are compiled as swapped Lt/Le; verify the semantics held *)
  let d =
    design "int f(int a, int b) { return (a > b) * 10 + (a >= b); }"
      ~entry:"f"
  in
  Alcotest.(check (option int)) "gt/ge" (Some 11) (Design.run_int d [ 5; 3 ]);
  Alcotest.(check (option int)) "eq case" (Some 1) (Design.run_int d [ 3; 3 ]);
  Alcotest.(check (option int)) "lt case" (Some 0) (Design.run_int d [ 2; 3 ])

let test_deep_recursion_stack () =
  let d =
    design "int sum(int n) { if (n <= 0) { return 0; } return n + sum(n - 1); }"
      ~entry:"sum"
  in
  Alcotest.(check (option int)) "recursion depth 500" (Some 125250)
    (Design.run_int d [ 500 ])

let test_stack_overflow_detected () =
  let d =
    design "int loop(int n) { return loop(n + 1); }" ~entry:"loop"
  in
  match d.Design.run (Design.int_args [ 0 ]) with
  | exception C2v_machine.Runtime_error _ -> ()
  | exception C2v_machine.Timeout -> ()
  | _ -> Alcotest.fail "unbounded recursion must fail"

let test_heap_and_stack_disjoint () =
  let d =
    design
      {|
      int f(int n) {
        int* block = malloc(4);
        block[0] = 11;
        int local = 22;
        block[1] = 33;
        return block[0] + local + block[1] + n;
      }
      |}
      ~entry:"f"
  in
  Alcotest.(check (option int)) "heap/stack independent" (Some 67)
    (Design.run_int d [ 1 ])

let test_cycle_rules () =
  (* memory-heavy code costs more cycles per instruction than ALU code *)
  let alu = design "int f(int a) { return ((a + 1) * 3) ^ (a - 2); }" ~entry:"f" in
  let ra = alu.Design.run (Design.int_args [ 5 ]) in
  Alcotest.(check bool) "cycles exceed instruction count" true
    (Option.get ra.Design.cycles > 5);
  (* division is charged heavily *)
  let div = design "int f(int a) { return a / 3; }" ~entry:"f" in
  let add = design "int f(int a) { return a + 3; }" ~entry:"f" in
  let c d = Option.get (d.Design.run (Design.int_args [ 9 ])).Design.cycles in
  Alcotest.(check bool) "div costs more than add" true (c div > c add)

let test_verilog_view () =
  let d = design "int f(int a) { return a * 2 + 1; }" ~entry:"f" in
  match d.Design.verilog () with
  | None -> Alcotest.fail "c2verilog must emit its processor"
  | Some v ->
    let contains needle =
      let n = String.length needle in
      let rec go i =
        i + n <= String.length v && (String.sub v i n = needle || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("verilog contains " ^ needle) true
          (contains needle))
      [ "module f("; "reg [71:0] rom"; "function [63:0] alu";
        "output reg done"; "endmodule"; "enter"; "ret" ];
    (* every instruction appears in the ROM init *)
    let compiled = compile "int f(int a) { return a * 2 + 1; }" ~entry:"f" in
    Alcotest.(check bool) "all ROM words initialized" true
      (contains
         (Printf.sprintf "rom[%d]" (Array.length compiled.C2verilog.code - 1)))

let test_globals_initialized_in_memory_image () =
  let compiled =
    compile "int table[4] = {5, 6, 7, 8};\nint f(void) { return table[2]; }"
      ~entry:"f"
  in
  Alcotest.(check int) "four initialized words" 4
    (List.length compiled.C2verilog.initial_memory);
  let d =
    design "int table[4] = {5, 6, 7, 8};\nint f(void) { return table[2]; }"
      ~entry:"f"
  in
  Alcotest.(check (option int)) "reads the image" (Some 7)
    (Design.run_int d [])

(* --- differential: on-demand memory vs the full-image reference ------- *)

let ret_width program entry =
  match Ast.find_func program entry with
  | Some f -> max 0 (Ctypes.width f.Ast.f_ret)
  | None -> 0

(* A run's outcome, or the exception it ended in, as one comparable
   value. *)
let outcome_of run compiled ~ret_width args =
  match run compiled ~ret_width ~args:(Design.int_args args) with
  | (o : C2v_machine.outcome) -> Ok o
  | exception e -> Error (Printexc.to_string e)

let show_outcome = function
  | Error e -> "raised " ^ e
  | Ok (o : C2v_machine.outcome) ->
    let bv = Bitvec.to_hex_string in
    Printf.sprintf "result %s, %d cycles, %d instrs, globals [%s], memories [%s]"
      (Option.fold ~none:"none" ~some:bv o.C2v_machine.return_value)
      o.C2v_machine.cycles o.C2v_machine.instructions_executed
      (String.concat "; "
         (List.map (fun (n, v) -> n ^ "=" ^ bv v) o.C2v_machine.globals))
      (String.concat "; "
         (List.map
            (fun (n, a) ->
              n ^ "=" ^ String.concat "," (Array.to_list (Array.map bv a)))
            o.C2v_machine.memories))

(* [None] when the production machine and the reference agree on every
   vector, else the first difference. *)
let machine_diff program ~entry vectors =
  let compiled = C2verilog.compile_program program ~entry in
  let ret_width = ret_width program entry in
  List.find_map
    (fun args ->
      let got = outcome_of (C2v_machine.run ?max_cycles:None) compiled ~ret_width args
      and want = outcome_of (C2v_ref.run ?max_cycles:None) compiled ~ret_width args in
      if got = want then None
      else
        Some
          (Printf.sprintf "args [%s]: got %s; reference %s"
             (String.concat "," (List.map string_of_int args))
             (show_outcome got) (show_outcome want)))
    vectors

let accepted program =
  match Backend.reject_if_illegal ~backend:"c2verilog" Dialect.c2verilog program with
  | () -> true
  | exception Backend.Dialect_rejected _ -> false

let test_corpus_matches_reference () =
  let checked =
    List.fold_left
      (fun n (w : Workloads.t) ->
        let program = Workloads.parse w in
        if not (accepted program) then n
        else begin
          (match machine_diff program ~entry:w.Workloads.entry w.Workloads.arg_sets with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s" w.Workloads.name d);
          n + 1
        end)
      0 Workloads.all
  in
  Alcotest.(check bool) "the thorny kernels are among those checked" true
    (checked >= List.length Workloads.thorny)

let fuzz_matches_reference =
  QCheck.Test.make ~name:"fuzzed c2verilog programs match the reference machine"
    ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, index) ->
      let program =
        Typecheck.parse_and_check
          (Pretty.program_to_string
             (Fuzzgen.generate Dialect.c2verilog ~seed ~index))
      in
      match machine_diff program ~entry:Fuzz.entry Fuzz.default_arg_sets with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)

let edge_case name src ~entry vectors () =
  match machine_diff (Typecheck.parse_and_check src) ~entry vectors with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" name d

let edge_cases =
  [ ( "uninitialised malloc words",
      {|
      int f(int n) {
        int* p = malloc(n);
        int* q = malloc(3);
        q[1] = 9;
        return p[0] + p[n - 1] + q[0] + q[1] + q[2];
      }
      |},
      "f", [ [ 1 ]; [ 40 ]; [ 5000 ] ] );
    ( "stack slots reused after a deeper call",
      {|
      int deep(int n) {
        int a = n * 3;
        int b = a + 7;
        if (n > 0) { return deep(n - 1) + a + b; }
        return a - b;
      }
      int shallow(void) { int x; int y; return x + y; }
      int f(int n) { int r = deep(n); return r + shallow(); }
      |},
      "f", [ [ 0 ]; [ 3 ]; [ 30 ] ] );
    ( "recursion depth 500",
      "int sum(int n) { if (n <= 0) { return 0; } return n + sum(n - 1); }",
      "sum", [ [ 500 ] ] );
    ( "unbounded recursion",
      "int loop(int n) { return loop(n + 1); }",
      "loop", [ [ 0 ] ] ) ]

let suite =
  ( "c2verilog",
    [ Alcotest.test_case "codegen shape" `Quick test_codegen_shape;
      Alcotest.test_case "comparison normalization" `Quick
        test_comparison_normalization;
      Alcotest.test_case "deep recursion stack" `Quick
        test_deep_recursion_stack;
      Alcotest.test_case "stack overflow detected" `Quick
        test_stack_overflow_detected;
      Alcotest.test_case "heap/stack disjoint" `Quick
        test_heap_and_stack_disjoint;
      Alcotest.test_case "cycle rules" `Quick test_cycle_rules;
      Alcotest.test_case "verilog view" `Quick test_verilog_view;
      Alcotest.test_case "global memory image" `Quick
        test_globals_initialized_in_memory_image;
      Alcotest.test_case "corpus matches full-image reference" `Quick
        test_corpus_matches_reference;
      QCheck_alcotest.to_alcotest fuzz_matches_reference ]
    @ List.map
        (fun (name, src, entry, vectors) ->
          Alcotest.test_case ("reference: " ^ name) `Quick
            (edge_case name src ~entry vectors))
        edge_cases )
