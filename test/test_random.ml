(* Random-program differential testing.

   A qcheck generator produces small well-typed C programs (arithmetic,
   arrays, nested if/for, global state).  Each generated program is run
   through every semantic layer of the system — the AST interpreter, the
   CIR interpreter, the SSA evaluator, the FSMD simulator (three
   scheduling policies), the elaborated netlist, the asynchronous token
   simulator, the Handel-C statement machine and the C2Verilog stack
   machine — and all results must agree bit-for-bit.  This is the deepest
   correctness net in the repository: any divergence between two layers is
   a real compiler bug. *)

(* --- a tiny well-typed program generator --- *)

type genv = {
  mutable vars : string list; (* int scalars in scope *)
  mutable counter : int;
  array_name : string;
  array_len : int;
}

let fresh g prefix =
  g.counter <- g.counter + 1;
  Printf.sprintf "%s%d" prefix g.counter

open QCheck.Gen

(* expressions are built from in-scope variables and bounded constants;
   shift amounts are masked into 0..7 and divisors guarded into 1..8 so
   every generated program is defined under all dialects while still
   exercising signedness and the division/shift datapaths *)
let gen_expr g =
  let leaf =
    oneof
      [ map (fun n -> Printf.sprintf "%d" n) (int_range (-20) 20);
        (match g.vars with
        | [] -> return "7"
        | vars -> map (fun i -> List.nth vars (abs i mod List.length vars)) nat) ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          ( 3,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
              (go (depth - 1)) (go (depth - 1)) );
          ( 1,
            map3
              (fun op a b -> Printf.sprintf "(%s %s (%s & 7))" a op b)
              (oneofl [ "<<"; ">>" ])
              (go (depth - 1)) (go (depth - 1)) );
          ( 1,
            (* division/modulo with the divisor guarded into 1..8 *)
            map3
              (fun op a b -> Printf.sprintf "(%s %s ((%s & 7) + 1))" a op b)
              (oneofl [ "/"; "%" ])
              (go (depth - 1)) (go (depth - 1)) );
          ( 1,
            map3
              (fun op a b -> Printf.sprintf "(%s %s %s)" a op b)
              (oneofl [ "<"; "<="; "=="; "!=" ])
              (go (depth - 1)) (go (depth - 1)) );
          ( 1,
            map2
              (fun a idx ->
                Printf.sprintf "%s[(%s & %d)]" g.array_name idx
                  (g.array_len - 1)
                |> fun s -> ignore a; s)
              (go 0) (go (depth - 1)) ) ]
  in
  go 2

let gen_stmt g ~depth =
  let assign_var =
    match g.vars with
    | [] -> map (fun e -> Printf.sprintf "int t0 = %s;" e) (gen_expr g)
    | vars ->
      map2
        (fun i e ->
          Printf.sprintf "%s = %s;" (List.nth vars (abs i mod List.length vars)) e)
        nat (gen_expr g)
  in
  let decl =
    map
      (fun e ->
        let name = fresh g "v" in
        let s = Printf.sprintf "int %s = %s;" name e in
        g.vars <- name :: g.vars;
        s)
      (gen_expr g)
  in
  let array_store =
    map2
      (fun idx e ->
        Printf.sprintf "%s[(%s & %d)] = %s;" g.array_name idx
          (g.array_len - 1) e)
      (gen_expr g) (gen_expr g)
  in
  let rec stmt depth =
    if depth = 0 then oneof [ assign_var; decl; array_store ]
    else
      frequency
        [ (3, assign_var);
          (2, decl);
          (2, array_store);
          ( 2,
            (* if/else over existing statements; declarations inside the
               branches stay scoped there, so remember and restore vars *)
            gen_expr g >>= fun cond ->
            let saved = g.vars in
            stmt (depth - 1) >>= fun then_s ->
            g.vars <- saved;
            stmt (depth - 1) >>= fun else_s ->
            g.vars <- saved;
            return
              (Printf.sprintf "if (%s) { %s } else { %s }" cond then_s else_s)
          );
          ( 1,
            (* a bounded counting loop over fresh body statements *)
            int_range 2 6 >>= fun trips ->
            let loop_var = fresh g "i" in
            let saved = g.vars in
            g.vars <- loop_var :: g.vars;
            stmt (depth - 1) >>= fun body ->
            g.vars <- saved;
            return
              (Printf.sprintf "for (int %s = 0; %s < %d; %s = %s + 1) { %s }"
                 loop_var loop_var trips loop_var loop_var body) ) ]
  in
  stmt depth

(* Statements must be generated strictly left to right so that a mutable
   scope entry (a declaration) is only visible to *later* statements;
   an explicit monadic fold guarantees the order. *)
let gen_stmts g n =
  let rec go n acc =
    if n = 0 then return (List.rev acc)
    else gen_stmt g ~depth:2 >>= fun s -> go (n - 1) (s :: acc)
  in
  go n []

let gen_program =
  sized_size (int_range 3 8) (fun n ->
      let g = { vars = [ "a"; "b" ]; counter = 0; array_name = "buf";
                array_len = 8 } in
      gen_stmts g n >>= fun stmts ->
      gen_expr g >>= fun result ->
      return
        (Printf.sprintf
           {|
           int buf[8];
           int f(int a, int b) {
             %s
             return %s;
           }
           |}
           (String.concat "\n             " stmts)
           result))

let arb_program = QCheck.make ~print:(fun s -> s) gen_program

(* --- the differential harness --- *)

let args_of (a, b) = [ Bitvec.of_int ~width:64 a; Bitvec.of_int ~width:64 b ]

let layers (src : string) (a, b) : (string * int option) list =
  let program = Typecheck.parse_and_check src in
  let reference =
    let o = Interp.run program ~entry:"f" ~args:(args_of (a, b)) in
    Option.map Bitvec.to_int o.Interp.return_value
  in
  let lowered = Lower.lower_program program ~entry:"f" in
  let simplified, _ = Simplify.simplify lowered.Lower.func in
  let cir =
    let o = Cir_interp.run lowered.Lower.func ~args:(args_of (a, b)) in
    Option.map Bitvec.to_int o.Cir_interp.return_value
  in
  let cir_simplified =
    let o = Cir_interp.run simplified ~args:(args_of (a, b)) in
    Option.map Bitvec.to_int o.Cir_interp.return_value
  in
  let if_converted =
    let converted, _ = Ifconv.convert simplified in
    let o = Cir_interp.run converted ~args:(args_of (a, b)) in
    Option.map Bitvec.to_int o.Cir_interp.return_value
  in
  let ssa_result =
    Option.map Bitvec.to_int
      (Ssa.run (Ssa.of_func simplified) ~args:(args_of (a, b)))
  in
  let fsmd_with schedule_name schedule_block =
    let fsmd = Fsmd.of_func simplified ~schedule_block in
    let o = Rtlsim.run fsmd ~args:(args_of (a, b)) in
    (schedule_name, Option.map Bitvec.to_int o.Rtlsim.return_value)
  in
  let serial = fsmd_with "fsmd-serial" (Fsmd.serial_schedule simplified) in
  let scheduled =
    fsmd_with "fsmd-scheduled" (fun blk ->
        Schedule.list_schedule simplified Schedule.default_allocation
          blk.Cir.instrs)
  in
  let handelc_fsmd =
    fsmd_with "fsmd-handelc" (Fsmd.handelc_schedule simplified)
  in
  let transmogrifier =
    let fsmd =
      Fsmd.of_func ~mem_forwarding:true simplified
        ~schedule_block:(Fsmd.transmogrifier_schedule simplified)
    in
    let o = Rtlsim.run fsmd ~args:(args_of (a, b)) in
    ("fsmd-transmogrifier", Option.map Bitvec.to_int o.Rtlsim.return_value)
  in
  let netlist =
    let fsmd =
      Fsmd.of_func simplified ~schedule_block:(fun blk ->
          Schedule.list_schedule simplified Schedule.default_allocation
            blk.Cir.instrs)
    in
    let e = Rtlgen.elaborate fsmd in
    match
      Rtlgen.simulate e ~args:(args_of (a, b)) ~func:simplified
    with
    | Ok (outputs, _) ->
      ("netlist", Some (Bitvec.to_int (List.assoc "result" outputs)))
    | Error `Timeout -> ("netlist", None)
  in
  let async =
    let o = Asim.run (Ssa.of_func simplified) ~args:(args_of (a, b)) in
    ("async-dataflow", Option.map Bitvec.to_int o.Asim.return_value)
  in
  let handelc =
    let d = Handelc.compile program ~entry:"f" in
    ("handelc", Design.run_int d [ a; b ])
  in
  let c2v =
    let d = C2v_machine.compile program ~entry:"f" in
    ("c2verilog", Design.run_int d [ a; b ])
  in
  [ ("interp", reference); ("cir", cir); ("cir-simplified", cir_simplified);
    ("if-converted", if_converted); ("ssa", ssa_result); serial; scheduled;
    handelc_fsmd; transmogrifier; netlist; async; handelc; c2v ]

let prop_all_layers_agree =
  QCheck.Test.make ~name:"all semantic layers agree on random programs"
    ~count:120
    (QCheck.pair arb_program
       (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)))
    (fun (src, inputs) ->
      let results = layers src inputs in
      let reference = snd (List.hd results) in
      List.for_all
        (fun (layer, r) ->
          if r = reference then true
          else
            QCheck.Test.fail_reportf
              "layer %s = %s but interp = %s on:\n%s\ninputs %d,%d" layer
              (match r with Some v -> string_of_int v | None -> "none")
              (match reference with
              | Some v -> string_of_int v
              | None -> "none")
              src (fst inputs) (snd inputs))
        results)

(* Cones needs the stricter subset (no while/unbounded): our generator only
   emits bounded for loops, so it qualifies — flatten and compare too. *)
let prop_cones_agrees =
  QCheck.Test.make ~name:"cones flattening agrees on random programs"
    ~count:80
    (QCheck.pair arb_program
       (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)))
    (fun (src, (a, b)) ->
      let program = Typecheck.parse_and_check src in
      let expected = Interp.run_int src ~entry:"f" ~args:[ a; b ] in
      let design = Cones.compile program ~entry:"f" in
      match Design.run_int design [ a; b ] with
      | Some v when v = expected -> true
      | Some v ->
        QCheck.Test.fail_reportf "cones = %d, interp = %d on:\n%s" v expected
          src
      | None -> QCheck.Test.fail_reportf "cones returned nothing on:\n%s" src)

(* Simplify must be a fixpoint of itself: a second application changes
   nothing.  Anything it still wants to rewrite after one application is a
   missed rewrite the trace would misattribute to later passes. *)
let prop_simplify_idempotent =
  QCheck.Test.make ~name:"simplify is idempotent on random programs"
    ~count:200 arb_program (fun src ->
      let program = Typecheck.parse_and_check src in
      let lowered = Lower.lower_program program ~entry:"f" in
      let once, _ = Simplify.simplify lowered.Lower.func in
      let again, _ = Simplify.simplify once in
      if Cir.to_string once = Cir.to_string again then true
      else
        QCheck.Test.fail_reportf
          "simplify is not idempotent on:\n%s\nfirst:\n%s\nsecond:\n%s" src
          (Cir.to_string once) (Cir.to_string again))

(* --- concurrent programs: par blocks and rendezvous channels --- *)

(* Each generated program has two par arms over two shared globals and one
   channel.  The clean shape partitions the state: arm 0 owns g0 and the
   sending end, arm 1 owns g1 and the receiving end, with matched
   send/recv counts (straight-line arms with matched counts cannot
   deadlock).  The racy shape additionally lets arm 1 touch g0, which is
   a structural race the static checker must flag. *)
let gen_list n gen =
  let rec go n acc =
    if n = 0 then return (List.rev acc) else gen >>= fun x -> go (n - 1) (x :: acc)
  in
  go n []

let rec interleave xs ys =
  match (xs, ys) with
  | [], r | r, [] -> r
  | x :: xs, y :: ys -> x :: y :: interleave xs ys

let gen_par_program : (bool * string) t =
  bool >>= fun racy ->
  int_range 1 3 >>= fun msgs ->
  let compute owned =
    map2
      (fun c k -> Printf.sprintf "%s = (%s + %d) * %d;" owned owned c k)
      (int_range (-9) 9) (int_range 1 4)
  in
  int_range 1 3 >>= fun n0 ->
  int_range 1 3 >>= fun n1 ->
  gen_list n0 (compute "g0") >>= fun c0 ->
  gen_list n1 (compute "g1") >>= fun c1 ->
  gen_list msgs
    (map (fun k -> Printf.sprintf "send(ch, a + %d);" k) (int_range 0 9))
  >>= fun sends ->
  (* recv is a statement form (bare RHS), so bind it before folding *)
  let recvs =
    List.init msgs (fun i ->
        Printf.sprintf "int m%d = recv(ch); g1 = g1 + m%d;" i i)
  in
  int_range 0 2 >>= fun racy_shape ->
  let race =
    if not racy then []
    else
      match racy_shape with
      | 0 -> [ "g0 = g0 + 1;" ] (* write/write with arm 0 *)
      | 1 -> [ "g1 = g1 + g0;" ] (* read/write with arm 0's writes *)
      | _ -> [ "g0 = b;" ]
  in
  let arm0 = interleave c0 sends in
  let arm1 = interleave c1 recvs @ race in
  let body arm = String.concat " " arm in
  return
    ( racy,
      Printf.sprintf
        {|
        chan int ch;
        int g0;
        int g1;
        int f(int a, int b) {
          par {
            { %s }
            { %s }
          }
          return (g0 + 3 * g1) ^ b;
        }
        |}
        (body arm0) (body arm1) )

let arb_par_program =
  QCheck.make ~print:(fun (racy, s) ->
      Printf.sprintf "(* racy=%b *)%s" racy s)
    gen_par_program

(* The dynamic cross-check of the static concurrency checker: perturbing
   the interpreter's per-round thread visit order must not change any
   observable of a checker-clean program, while programs constructed with
   a structural race must be flagged (so a divergence there is expected
   and excluded, never silently tolerated). *)
let prop_checker_clean_is_schedule_deterministic =
  QCheck.Test.make
    ~name:"checker-clean par programs are deterministic under arm-order shuffles"
    ~count:120
    (QCheck.pair arb_par_program
       (QCheck.pair (QCheck.int_range (-20) 20) (QCheck.int_range (-20) 20)))
    (fun ((racy, src), (a, b)) ->
      let program = Typecheck.parse_and_check src in
      let diags = Conc_check.check_program ~dialect:Dialect.handelc program in
      if racy then
        if diags = [] then
          QCheck.Test.fail_reportf
            "checker missed a constructed race in:\n%s" src
        else true
      else if diags <> [] then
        QCheck.Test.fail_reportf
          "checker flagged a race-free program:\n%s\nfirst diagnostic: %s" src
          (Conc_check.render (List.hd diags))
      else
        let observe sched_seed =
          let o =
            Interp.run ?sched_seed program ~entry:"f" ~args:(args_of (a, b))
          in
          ( Option.map Bitvec.to_int o.Interp.return_value,
            Bitvec.to_int (Interp.read_global o "g0"),
            Bitvec.to_int (Interp.read_global o "g1") )
        in
        let reference = observe None in
        List.for_all
          (fun seed ->
            if observe (Some seed) = reference then true
            else
              QCheck.Test.fail_reportf
                "schedule divergence under seed %d on a checker-clean \
                 program:\n%s\ninputs %d,%d"
                seed src a b)
          [ 1; 2; 3; 5; 8; 13 ])

let suite =
  ( "random-differential",
    [ QCheck_alcotest.to_alcotest prop_simplify_idempotent;
      QCheck_alcotest.to_alcotest prop_all_layers_agree;
      QCheck_alcotest.to_alcotest prop_cones_agrees;
      QCheck_alcotest.to_alcotest prop_checker_clean_is_schedule_deterministic ] )
