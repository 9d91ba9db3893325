(* Obs.Span: the trace-tree invariants every sink leans on (emission
   order, non-negative durations, stable skeletons), the flight
   recorder's ring arithmetic, the Chrome export's structural contract,
   and the end-to-end acceptance shape: one serve compile request is one
   tree rooted at "request" with queue-wait, frontend, per-pass, backend,
   simulate and oracle descendants — and instrumentation itself is
   inert: span-traced runs are bit-identical to plain runs on every
   simulation engine. *)

let json = Alcotest.testable (Fmt.of_to_string Metrics.render_compact) ( = )
let gcd_w = Workloads.gcd

(* Every suite in this file assumes spans are on and the ring is the
   default shape; tests that perturb either restore it on exit. *)
let with_default_flight f =
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled true;
      Span.Flight.set_capacity 64)
    f

(* --- core invariants --- *)

let test_parent_before_child () =
  let tr, ctx = Span.start ~kind:"root" () in
  Span.span ctx "a" (fun actx ->
      Span.span actx "b" (fun _ -> ());
      Span.span actx ~attrs:[ ("k", Metrics.Int 7) ] "c" (fun _ -> ()));
  Span.span ctx "d" (fun _ -> ());
  Span.finish tr;
  let rs = Span.records tr in
  Alcotest.(check (list string)) "emission order"
    [ "root"; "a"; "b"; "c"; "d" ]
    (List.map (fun r -> r.Span.kind) rs);
  (* seq numbers are the emission order, and a child never precedes its
     parent — the property the flight recorder and Chrome sink lean on *)
  List.iteri (fun i r -> Alcotest.(check int) "seq = position" i r.Span.seq) rs;
  List.iter
    (fun r ->
      match r.Span.parent with
      | None -> Alcotest.(check int) "only the root is parentless" 0 r.Span.span_id
      | Some p ->
        Alcotest.(check bool) "parent emitted first" true (p < r.Span.span_id))
    rs;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s duration closed and non-negative" r.Span.kind)
        true
        (r.Span.dur_ms >= 0.))
    rs;
  Alcotest.(check string) "skeleton" "root(a(b c) d)" (Span.skeleton tr)

let test_null_ctx_is_inert () =
  with_default_flight (fun () ->
      Span.set_enabled false;
      let tr, ctx = Span.start ~kind:"root" () in
      Alcotest.(check bool) "disabled start yields a null ctx" true
        (ctx = Span.null);
      let v = Span.span ctx "child" (fun _ -> 42) in
      Alcotest.(check int) "body still runs" 42 v;
      Span.add_attr ctx "k" (Metrics.Int 1);
      Span.emit ctx ~dur_ms:1. "e";
      Span.finish tr;
      Alcotest.(check int) "nothing recorded beyond the root" 1
        (List.length (Span.records tr));
      Span.set_enabled true;
      let _, ctx = Span.start ~kind:"root" () in
      Alcotest.(check bool) "re-enabled start is live" true (ctx <> Span.null))

(* --- determinism: the same compile yields the same tree shape --- *)

let gcd_skeleton () =
  Driver.clear_cache ();
  let tr, ctx = Span.start ~kind:"compile" () in
  let session = Driver.create ~entry:gcd_w.Workloads.entry gcd_w.Workloads.source in
  (match Driver.compile ~ctx session (Registry.get "bachc") with
  | Ok design ->
    ignore (Design.run_traced ~ctx design (Design.int_args [ 54; 24 ]))
  | Error e -> Alcotest.fail (Driver.render_error e));
  (match Driver.reference ~ctx session ~args:[ 54; 24 ] with
  | Ok 6 -> ()
  | Ok v -> Alcotest.failf "oracle computed %d" v
  | Error e -> Alcotest.fail (Driver.render_error e));
  Span.finish tr;
  Span.skeleton tr

let test_deterministic_gcd_tree () =
  let first = gcd_skeleton () in
  let second = gcd_skeleton () in
  Alcotest.(check string) "same tree shape across two cold runs" first second;
  (* and the shape names the stages the driver promises *)
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) (kind ^ " present") true (contains kind first))
    [ "frontend"; "dialect-check"; "backend"; "pass:"; "simulate"; "oracle" ]

(* --- the flight recorder ring --- *)

let test_flight_ring_is_bounded () =
  with_default_flight (fun () ->
      Span.Flight.set_capacity 8;
      let tr, ctx = Span.start ~kind:"root" () in
      for i = 1 to 12 do
        Span.span ctx ~attrs:[ ("i", Metrics.Int i) ] "tick" (fun _ -> ())
      done;
      Span.finish tr;
      Alcotest.(check int) "capacity" 8 (Span.Flight.capacity ());
      Alcotest.(check int) "occupancy saturates at capacity" 8
        (Span.Flight.occupancy ());
      Alcotest.(check int) "13 closed spans recorded (12 ticks + root)" 13
        (Span.Flight.recorded ());
      Alcotest.(check int) "overflow counted, not crashed" 5
        (Span.Flight.dropped ());
      (* the dump keeps the newest spans, oldest first *)
      match Span.Flight.dump () with
      | Metrics.Obj fields -> (
        Alcotest.check json "dropped" (Metrics.Int 5)
          (Option.get (List.assoc_opt "dropped" fields));
        match List.assoc_opt "spans" fields with
        | Some (Metrics.List spans) ->
          Alcotest.(check int) "spans held" 8 (List.length spans);
          let i_of = function
            | Metrics.Obj s -> (
              match List.assoc_opt "attrs" s with
              | Some (Metrics.Obj [ ("i", Metrics.Int i) ]) -> Some i
              | _ -> None)
            | _ -> None
          in
          (* ticks 6..12 survive (tick 13 is the root, no "i" attr) *)
          Alcotest.(check (list int)) "oldest-first window"
            [ 6; 7; 8; 9; 10; 11; 12 ]
            (List.filter_map i_of spans)
        | _ -> Alcotest.fail "dump without spans list")
      | _ -> Alcotest.fail "dump must be an object")

(* --- the Chrome trace_event sink --- *)

let test_chrome_export_structure () =
  let tr, ctx = Span.start ~kind:"request" () in
  Span.span ctx "work" (fun c -> Span.span c "inner" (fun _ -> ()));
  Span.finish tr;
  let sink = Span.Chrome.create () in
  Span.Chrome.add sink ~pid:3 ~tid:7 tr;
  Alcotest.(check int) "event count" 3 (Span.Chrome.events sink);
  match Span.Chrome.to_json ~extra:[ ("x", Metrics.Int 1) ] sink with
  | Metrics.Obj fields -> (
    Alcotest.check json "extra fields pass through" (Metrics.Int 1)
      (Option.get (List.assoc_opt "x" fields));
    match List.assoc_opt "traceEvents" fields with
    | Some (Metrics.List evs) ->
      Alcotest.(check bool) "nonempty" true (evs <> []);
      List.iter
        (fun ev ->
          match ev with
          | Metrics.Obj e ->
            let has k = List.mem_assoc k e in
            Alcotest.check json "complete event" (Metrics.String "X")
              (Option.get (List.assoc_opt "ph" e));
            Alcotest.check json "pid" (Metrics.Int 3)
              (Option.get (List.assoc_opt "pid" e));
            Alcotest.check json "tid" (Metrics.Int 7)
              (Option.get (List.assoc_opt "tid" e));
            Alcotest.(check bool) "ts/dur/args present" true
              (has "ts" && has "dur" && has "args");
            (match List.assoc_opt "ts" e with
            | Some (Metrics.Fixed (_, ts)) ->
              Alcotest.(check bool) "ts re-anchored to >= 0" true (ts >= 0.)
            | _ -> Alcotest.fail "ts must be a fixed-point number")
          | _ -> Alcotest.fail "event must be an object")
        evs
    | _ -> Alcotest.fail "traceEvents must be a list")
  | _ -> Alcotest.fail "export must be an object"

(* --- the serve acceptance shape --- *)

let member name j =
  match Serve.Json.member name j with
  | Some v -> v
  | None ->
    Alcotest.fail
      (Printf.sprintf "missing %S in %s" name (Metrics.render_compact j))

let with_pool ?domains f =
  let captured = ref [] in
  let lock = Mutex.create () in
  let pool =
    Serve.Pool.create ?domains
      ~on_trace:(fun ~pid ~tid tr ->
        Mutex.lock lock;
        captured := (pid, tid, tr) :: !captured;
        Mutex.unlock lock)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Serve.Pool.shutdown pool)
    (fun () -> f pool captured)

let test_serve_request_trace_tree () =
  Driver.clear_cache ();
  with_pool ~domains:1 (fun pool captured ->
      let resp = ref None in
      Serve.Pool.submit pool
        (Serve.Compile
           { id = Metrics.Int 1;
             source = gcd_w.Workloads.source;
             entry = gcd_w.Workloads.entry;
             backend = "bachc";
             args = Some [ 54; 24 ];
             config = None })
        ~respond:(fun r -> resp := Some r);
      Serve.Pool.drain pool;
      let resp = Option.get !resp in
      Alcotest.check json "computed" (Metrics.Int 6) (member "result" resp);
      let _, _, tr =
        match !captured with [ t ] -> t | l ->
          Alcotest.failf "expected one trace, got %d" (List.length l)
      in
      (* the response's trace_id is the handle into the captured tree *)
      Alcotest.check json "trace_id echoed next to id"
        (Metrics.String (Span.trace_id tr))
        (member "trace_id" resp);
      let rs = Span.records tr in
      let root = List.hd rs in
      Alcotest.(check string) "rooted at the request" "request" root.Span.kind;
      Alcotest.(check bool) "root is parentless" true (root.Span.parent = None);
      let kinds = List.map (fun r -> r.Span.kind) rs in
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " span present") true (List.mem k kinds))
        [ "queue-wait"; "frontend"; "dialect-check"; "backend"; "simulate";
          "oracle" ];
      Alcotest.(check bool) "per-pass spans replayed" true
        (List.exists
           (fun k -> String.length k > 5 && String.sub k 0 5 = "pass:")
           kinds);
      (* all of them descend from the request: parents resolve in-tree *)
      let ids = List.map (fun r -> r.Span.span_id) rs in
      List.iter
        (fun r ->
          match r.Span.parent with
          | None -> ()
          | Some p ->
            Alcotest.(check bool) "parent resolves" true (List.mem p ids))
        rs)

let test_serve_failure_carries_flight_dump () =
  with_pool ~domains:1 (fun pool _captured ->
      let resp = ref None in
      Serve.Pool.submit pool
        (Serve.Compile
           { id = Metrics.Int 2;
             source = gcd_w.Workloads.source;
             entry = gcd_w.Workloads.entry;
             backend = "cones" (* unbounded loop: dialect-reject *);
             args = None; config = None })
        ~respond:(fun r -> resp := Some r);
      Serve.Pool.drain pool;
      let resp = Option.get !resp in
      Alcotest.check json "rejected" (Metrics.Bool false) (member "ok" resp);
      Alcotest.check json "typed kind" (Metrics.String "dialect-reject")
        (member "kind" (member "error" resp));
      (match member "trace_id" resp with
      | Metrics.String _ -> ()
      | _ -> Alcotest.fail "failures still carry a trace id");
      match member "spans" (member "flight_recorder" resp) with
      | Metrics.List spans ->
        Alcotest.(check bool) "flight dump holds the last spans" true
          (spans <> [])
      | _ -> Alcotest.fail "flight_recorder.spans must be a list")

let test_serve_stats_gauges () =
  with_pool ~domains:1 (fun pool _captured ->
      let resp = ref None in
      Serve.Pool.submit pool (Serve.Stats { id = Metrics.Null })
        ~respond:(fun r -> resp := Some r);
      Serve.Pool.drain pool;
      let resp = Option.get !resp in
      Alcotest.check json "schema bumped for spans"
        (Metrics.String "chls.metrics/3")
        (member "schema" resp);
      let serve = member "serve" resp in
      (match member "queue_depth" (member "pool" serve) with
      | Metrics.Int _ -> ()
      | _ -> Alcotest.fail "queue-depth gauge missing");
      match member "flight_occupancy" (member "trace" serve) with
      | Metrics.Int _ -> ()
      | _ -> Alcotest.fail "flight-occupancy gauge missing")

(* --- instrumentation is inert: traced = plain on every engine --- *)

let outcome run =
  match run () with
  | (r : Design.run_result) ->
    Ok
      ( Option.map Bitvec.to_int r.Design.result,
        r.Design.cycles,
        r.Design.globals,
        r.Design.memories )
  | exception Rtlsim.Timeout { cycles; _ } -> Error (`Rtl_timeout cycles)
  | exception Asim.Timeout { tokens_fired; _ } -> Error (`Asim_timeout tokens_fired)

let tracing_never_perturbs =
  QCheck.Test.make ~count:25 ~name:"span-traced run = plain run (both engines)"
    (QCheck.pair Test_random.arb_program
       (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (src, (a, b)) ->
      let session = Driver.create ~entry:"f" src in
      match Driver.compile session (Registry.get "bachc") with
      | Error _ -> QCheck.assume_fail () (* generator corner: skip *)
      | Ok design ->
        List.for_all
          (fun sim ->
            let plain =
              outcome (fun () -> design.Design.run ~sim (Design.int_args [ a; b ]))
            in
            let tr, ctx = Span.start ~kind:"qcheck" () in
            let traced =
              outcome (fun () ->
                  Design.run_traced ~ctx ~sim design (Design.int_args [ a; b ]))
            in
            Span.finish tr;
            plain = traced)
          [ Design.Compiled; Design.Reference ])

let suite =
  ( "span",
    [ Alcotest.test_case "parent before child, durations closed" `Quick
        test_parent_before_child;
      Alcotest.test_case "disabled tracing is inert" `Quick
        test_null_ctx_is_inert;
      Alcotest.test_case "deterministic gcd tree" `Quick
        test_deterministic_gcd_tree;
      Alcotest.test_case "flight ring bounded, oldest dropped" `Quick
        test_flight_ring_is_bounded;
      Alcotest.test_case "chrome export structure" `Quick
        test_chrome_export_structure;
      Alcotest.test_case "serve request trace tree" `Quick
        test_serve_request_trace_tree;
      Alcotest.test_case "serve failure carries flight dump" `Quick
        test_serve_failure_carries_flight_dump;
      Alcotest.test_case "serve stats trace gauges" `Quick
        test_serve_stats_gauges;
      QCheck_alcotest.to_alcotest tracing_never_perturbs ] )
