(* Driver semantics: the frontend runs once per session, repeated
   compiles with an identical content key are cache hits returning
   bit-identical designs, and every rejection path comes back as a typed
   error instead of an exception. *)

let counter session key =
  match Metrics.find (Driver.metrics session) key with
  | Some (Metrics.Int n) -> n
  | _ -> 0

let gcd_w = Workloads.gcd

let session () = Driver.create ~entry:gcd_w.Workloads.entry gcd_w.Workloads.source

let design_of = function
  | Ok d -> d
  | Error e -> Alcotest.fail (Driver.render_error e)

let test_frontend_memoized () =
  let s = session () in
  (match Driver.program s with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Driver.render_error e));
  Alcotest.(check int) "first demand is a miss" 1
    (counter s "driver.cache.frontend_misses");
  ignore (Driver.program s);
  ignore (Driver.program s);
  Alcotest.(check int) "later demands are hits" 2
    (counter s "driver.cache.frontend_hits");
  Alcotest.(check int) "still one frontend run" 1
    (counter s "driver.cache.frontend_misses")

let test_design_cache_hit_bit_identical () =
  Driver.clear_cache ();
  let s = session () in
  let bachc = Registry.get "bachc" in
  let d1 = design_of (Driver.compile s bachc) in
  Alcotest.(check int) "first compile misses" 1
    (counter s "driver.cache.design_misses");
  let d2 = design_of (Driver.compile s bachc) in
  Alcotest.(check int) "second compile hits" 1
    (counter s "driver.cache.design_hits");
  (* same key, same memoized artifact *)
  Alcotest.(check bool) "the very same design" true (d1 == d2);
  (* a second session over identical source shares the process-wide
     cache: no recompile, bit-identical results on the seed vectors *)
  let s' = session () in
  let d3 = design_of (Driver.compile s' bachc) in
  Alcotest.(check bool) "cross-session hit" true (d1 == d3);
  Alcotest.(check int) "no new design compile" 0
    (counter s' "driver.cache.design_misses");
  List.iter
    (fun args ->
      Alcotest.(check (option int))
        (Printf.sprintf "gcd(%s) identical across compiles"
           (String.concat "," (List.map string_of_int args)))
        (Design.run_int d1 args) (Design.run_int d3 args))
    gcd_w.Workloads.arg_sets

let test_entry_and_source_key () =
  Driver.clear_cache ();
  let bachc = Registry.get "bachc" in
  let d1 = design_of (Driver.compile (session ()) bachc) in
  (* a different source digest must not hit gcd's cache line *)
  let w = Workloads.fib in
  let s2 = Driver.create ~entry:w.Workloads.entry w.Workloads.source in
  let d2 = design_of (Driver.compile s2 bachc) in
  Alcotest.(check bool) "different source, different design" false (d1 == d2);
  Alcotest.(check int) "fib compile was a miss" 1
    (counter s2 "driver.cache.design_misses")

let test_compile_all_amortizes_frontend () =
  Driver.clear_cache ();
  let s = session () in
  let backends = Registry.compiling () in
  let results = Driver.compile_all ~backends s in
  Alcotest.(check int) "one verdict per backend" (List.length backends)
    (List.length results);
  Alcotest.(check int) "frontend ran once" 1
    (counter s "driver.cache.frontend_misses");
  Alcotest.(check bool) "frontend hits >= N-1" true
    (counter s "driver.cache.frontend_hits" >= List.length backends - 1)

let test_typed_rejections () =
  let s = session () in
  (* ocapi: structural EDSL, no C frontend — typed, not an exception *)
  (match Driver.compile s (Registry.get "ocapi") with
  | Error (Driver.No_c_frontend { backend }) ->
    Alcotest.(check string) "ocapi rejection names the backend" "ocapi" backend
  | Ok _ -> Alcotest.fail "ocapi cannot compile C"
  | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e));
  (* cones: gcd's unbounded loop violates the combinational dialect *)
  (match Driver.compile s (Registry.get "cones") with
  | Error (Driver.Dialect_reject { backend; violations }) ->
    Alcotest.(check string) "reject names cones" "cones" backend;
    Alcotest.(check bool) "violations are reported" true (violations <> [])
  | Ok _ -> Alcotest.fail "cones must reject gcd"
  | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e));
  (* a frontend failure poisons the session with a typed error *)
  let bad = Driver.create ~entry:"f" "int f(int x) { return y; }" in
  match Driver.program bad with
  | Error (Driver.Frontend_error _) -> ()
  | Ok _ -> Alcotest.fail "unbound variable must not typecheck"
  | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e)

let test_reference_oracle () =
  let s = session () in
  match Driver.reference s ~args:[ 1071; 462 ] with
  | Ok v -> Alcotest.(check int) "gcd(1071,462)" 21 v
  | Error e -> Alcotest.fail (Driver.render_error e)

(* Verdict ordering is contractual (driver.mli): compile_all answers in
   the order of its [backends] argument, defaulting to registry
   declaration (Table 1) order.  Pin both so a refactor that reaches for
   a hash table gets caught here, not in a flaky compare table. *)
let test_compile_all_declared_order () =
  let s = session () in
  Alcotest.(check (list string)) "default order is registry declaration"
    (Registry.names ())
    (List.map (fun (b, _) -> Registry.name b) (Driver.compile_all s));
  Alcotest.(check (list string)) "registry declaration is Table 1"
    [ "cones"; "hardwarec"; "transmogrifier"; "systemc"; "ocapi";
      "c2verilog"; "cyber"; "handelc"; "specc"; "bachc"; "cash" ]
    (Registry.names ());
  let subset = [ Registry.get "cash"; Registry.get "cones" ] in
  Alcotest.(check (list string)) "explicit backends keep caller order"
    [ "cash"; "cones" ]
    (List.map
       (fun (b, _) -> Registry.name b)
       (Driver.compile_all ~backends:subset s))

let agreement =
  Alcotest.testable
    (fun ppf a -> Fmt.string ppf (Chls.agreement_name a))
    ( = )

(* The oracle rule shared by [chlsc compare] and serve's compare op: a
   vector the oracle cannot answer neither confirms nor refutes, and a
   disagreement on a vector it can answer always wins. *)
let test_agreement_rule () =
  let judge expected observed = Chls.agreement ~expected observed in
  Alcotest.check agreement "all answered and equal" Chls.Agree
    (judge [ Some 1; Some 2 ] [ Some 1; Some 2 ]);
  Alcotest.check agreement "one answered vector differs" Chls.Mismatch
    (judge [ Some 1; Some 2 ] [ Some 1; Some 3 ]);
  Alcotest.check agreement "a hardware timeout on an answered vector"
    Chls.Mismatch
    (judge [ Some 1 ] [ None ]);
  Alcotest.check agreement "no reference, nothing to refute"
    Chls.No_reference
    (judge [ None; Some 2 ] [ None; Some 2 ]);
  Alcotest.check agreement "a mismatch elsewhere beats no reference"
    Chls.Mismatch
    (judge [ None; Some 2 ] [ Some 7; Some 3 ]);
  Alcotest.(check (list string)) "oracle cells"
    [ "agree"; "MISMATCH"; "no-ref" ]
    (List.map Chls.agreement_name
       [ Chls.Agree; Chls.Mismatch; Chls.No_reference ]);
  (* a void entry: the oracle has no value, and no design is refuted *)
  let s = Driver.create ~entry:"f" "int g; void f(int x) { g = x + 1; }" in
  let expected =
    [ (match Driver.reference s ~args:[ 3 ] with
      | Ok v -> Alcotest.failf "void entry returned %d" v
      | Error _ -> None) ]
  in
  let compiled =
    List.filter_map
      (fun (b, verdict) ->
        match verdict with
        | Error _ -> None
        | Ok design ->
          let observed =
            match Driver.run design [ 3 ] with
            | Ok r -> Option.map Bitvec.to_int r.Design.result
            | Error _ -> None
          in
          Some (Registry.name b, Chls.agreement ~expected [ observed ]))
      (Driver.compile_all s)
  in
  Alcotest.(check bool) "some backend compiles a void entry" true
    (compiled <> []);
  List.iter
    (fun (name, a) ->
      Alcotest.check agreement (name ^ " on a void entry") Chls.No_reference a)
    compiled

(* A kernel that never terminates: every layer must end in a typed
   result, never an escaped budget exception, and compare's oracle cell
   says the reference had no answer rather than that the design is
   wrong. *)
let test_nonterminating_kernel () =
  let s =
    Driver.create ~entry:"spin"
      "int spin(int x) { while (x != -1) { x = x + 2; x = x - 2; } \
       return x; }"
  in
  let expected =
    match Driver.reference s ~args:[ 3 ] with
    | Error (Driver.Backend_error { backend = "reference"; _ }) -> [ None ]
    | Error e -> Alcotest.fail ("wrong error: " ^ Driver.render_error e)
    | Ok v -> Alcotest.failf "spin returned %d" v
  in
  List.iter
    (fun (b, verdict) ->
      match verdict with
      | Error _ -> ()
      | Ok design -> (
        match Driver.run design [ 3 ] with
        | Error t ->
          Alcotest.(check bool)
            (Registry.name b ^ " renders its timeout") true
            (String.length (Driver.render_timeout t) > 0);
          Alcotest.(check string)
            (Registry.name b ^ " oracle cell") "no-ref"
            (Chls.agreement_name (Chls.agreement ~expected [ None ]))
        | Ok _ -> Alcotest.fail (Registry.name b ^ ": spin finished")))
    (Driver.compile_all s)

let suite =
  ( "driver",
    [ Alcotest.test_case "frontend memoized" `Quick test_frontend_memoized;
      Alcotest.test_case "design cache hit is bit-identical" `Quick
        test_design_cache_hit_bit_identical;
      Alcotest.test_case "cache keyed by source and entry" `Quick
        test_entry_and_source_key;
      Alcotest.test_case "compile_all amortizes frontend" `Quick
        test_compile_all_amortizes_frontend;
      Alcotest.test_case "typed rejections" `Quick test_typed_rejections;
      Alcotest.test_case "reference oracle" `Quick test_reference_oracle;
      Alcotest.test_case "compile_all verdict order is declared order"
        `Quick test_compile_all_declared_order;
      Alcotest.test_case "oracle agreement rule" `Quick test_agreement_rule;
      Alcotest.test_case "non-terminating kernel ends typed" `Slow
        test_nonterminating_kernel ] )
