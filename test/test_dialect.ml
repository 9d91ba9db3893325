(* The one-walk dialect checker against the reference checker kept in
   dialect_ref.ml, and the summary memo that lets every backend of one
   compare share that walk. *)

let violation =
  Alcotest.testable
    (fun ppf (v : Dialect.violation) ->
      Fmt.pf ppf "%s in %s at %d:%d" v.Dialect.rule v.Dialect.where
        v.Dialect.vloc.Ast.line v.Dialect.vloc.Ast.col)
    ( = )

let same_as_reference ~what program =
  List.iter
    (fun (d : Dialect.t) ->
      Alcotest.(check (list violation))
        (Printf.sprintf "%s under %s" what d.Dialect.name)
        (Dialect_ref.check d program)
        (Dialect.check d program))
    Dialect.table1

(* Hand-written corners the corpus and the fuzzer draw rarely: pointer
   globals and decls, mutual recursion, a receive with no send, loops
   that are and are not statically bounded, and several offenders per
   function (only the first is reported). *)
let corners =
  [ "int *gp; int g[4]; int f(int x) { return x; }";
    "int even(int n) { if (n == 0) return 1; return odd(n - 1); }\n\
     int odd(int n) { if (n == 0) return 0; return even(n - 1); }\n\
     int f(int x) { return even(x); }";
    "chan int c; int f(int x) { int y = recv(c); return y + x; }";
    "int f(int x) { int s = 0; for (int i = 0; i < 8; i = i + 1) s = s + i;\n\
     for (int j = 0; j < x; j = j + 1) s = s + j;\n\
     while (s > 100) s = s - 3; do { s = s + 1; } while (s < 0);\n\
     return s; }";
    "int f(int x) { int a[4]; int *p = &a[0]; int *q = p; *p = x;\n\
     return *q + a[1]; }";
    "chan int c; int f(int x) { int y = 0; par { { send(c, x); delay; }\n\
     { y = recv(c); } } constrain (1, 3) { y = y + 1; } delay; return y; }"
  ]

let test_corpus_matches_reference () =
  List.iter
    (fun (w : Workloads.t) ->
      same_as_reference ~what:w.Workloads.name (Workloads.parse w))
    Workloads.all;
  List.iteri
    (fun i src ->
      same_as_reference
        ~what:(Printf.sprintf "corner %d" i)
        (Typecheck.parse_and_check src))
    corners

(* 300 fuzz programs per dialect, through the printer and the parser so
   every statement and expression carries a real location. *)
let test_fuzz_matches_reference () =
  List.iter
    (fun (d : Dialect.t) ->
      for index = 0 to 299 do
        let program =
          Typecheck.parse_and_check
            (Pretty.program_to_string (Fuzzgen.generate d ~seed:11 ~index))
        in
        same_as_reference
          ~what:(Printf.sprintf "fuzz %s #%d" d.Dialect.name index)
          program
      done)
    (Fuzz.default_dialects ())

let pointer_prog =
  Typecheck.parse_and_check
    "int f(int x) { int a[2]; int *p = &a[0]; *p = x; return a[0]; }"

let par_prog =
  Typecheck.parse_and_check
    "int f(int x) { int a = 0; int b = 0; par { a = x; b = 1; } return a + b; }"

(* The memo holds one program; asking about another must replace it, not
   answer from it. *)
let test_memo_alternation () =
  let want_ptr = Dialect_ref.check Dialect.cones pointer_prog
  and want_par = Dialect_ref.check Dialect.cones par_prog in
  Alcotest.(check bool) "the two programs break different rules" true
    (want_ptr <> want_par);
  for _ = 1 to 3 do
    Alcotest.(check (list violation)) "pointer program" want_ptr
      (Dialect.check Dialect.cones pointer_prog);
    Alcotest.(check (list violation)) "par program" want_par
      (Dialect.check Dialect.cones par_prog);
    Alcotest.(check bool) "par program is concurrent" true
      (Dialect.uses_concurrency par_prog);
    Alcotest.(check bool) "pointer program is not" false
      (Dialect.uses_concurrency pointer_prog)
  done;
  (* a structurally equal but physically distinct program is summarized
     afresh, with the same verdict *)
  let copy =
    Typecheck.parse_and_check
      "int f(int x) { int a[2]; int *p = &a[0]; *p = x; return a[0]; }"
  in
  Alcotest.(check (list violation)) "fresh parse" want_ptr
    (Dialect.check Dialect.cones copy)

(* Two domains checking different programs at once: each sees its own
   program's verdicts however their summaries interleave in the slot. *)
let test_memo_two_domains () =
  let work program =
    let want = List.map (fun d -> Dialect_ref.check d program) Dialect.table1 in
    fun () ->
      let ok = ref true in
      for _ = 1 to 500 do
        List.iter2
          (fun d w -> if Dialect.check d program <> w then ok := false)
          Dialect.table1 want
      done;
      !ok
  in
  let a = work pointer_prog and b = work par_prog in
  let da = Domain.spawn a and db = Domain.spawn b in
  Alcotest.(check bool) "domain checking the pointer program" true
    (Domain.join da);
  Alcotest.(check bool) "domain checking the par program" true
    (Domain.join db)

let test_concurrency_queries () =
  List.iter
    (fun (w : Workloads.t) ->
      let p = Workloads.parse w in
      let concurrent = List.memq w Workloads.concurrent in
      Alcotest.(check bool)
        (w.Workloads.name ^ " uses concurrency")
        concurrent (Dialect.uses_concurrency p);
      if not concurrent then
        Alcotest.(check bool) (w.Workloads.name ^ " has no par") false
          (Dialect.uses_par p))
    Workloads.all;
  Alcotest.(check bool) "par program has par" true (Dialect.uses_par par_prog);
  let recv_only = Typecheck.parse_and_check (List.nth corners 2) in
  Alcotest.(check bool) "a receive alone is concurrency" true
    (Dialect.uses_concurrency recv_only);
  Alcotest.(check bool) "but not a par" false (Dialect.uses_par recv_only)

let suite =
  ( "dialect",
    [ Alcotest.test_case "corpus matches the reference checker" `Quick
        test_corpus_matches_reference;
      Alcotest.test_case "fuzz programs match the reference checker" `Quick
        test_fuzz_matches_reference;
      Alcotest.test_case "memo answers each program alternately" `Quick
        test_memo_alternation;
      Alcotest.test_case "memo is per program across two domains" `Quick
        test_memo_two_domains;
      Alcotest.test_case "concurrency queries" `Quick
        test_concurrency_queries ] )
