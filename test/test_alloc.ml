(* Allocation on the run path: a run must not make the runtime force minor
   collections.  OCaml's [caml_make_vect] empties the minor heap whenever
   an array of more than 256 words starts from a young value, so one
   stray [Array.make n (fresh value)] per run turns every call into a
   collection.  Over many calls, collections must then stay within what
   the words allocated account for. *)

(* A 1k-word global array: each run's memory image and result arrays are
   well past the 256-word threshold. *)
let source =
  {|
  int table[1024];
  int f(int a, int b) {
    table[a] = b;
    table[b] = a + 1;
    return table[a] + table[b] + table[1000];
  }
  |}

let args = [ 3; 5 ]
let calls = 200

(* Minor collections over [calls] calls of [f], and the collections
   accounted for: one per minor heap's worth of words allocated there, and
   one per major cycle the calls completed (OCaml 5 empties the minor heap
   when a major cycle ends). *)
let collections f =
  f ();
  Gc.minor ();
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  let s1 = Gc.quick_stat () and w1 = Gc.minor_words () in
  let heap = float_of_int (Gc.get ()).Gc.minor_heap_size in
  ( s1.Gc.minor_collections - s0.Gc.minor_collections,
    int_of_float ((w1 -. w0) /. heap)
    + (s1.Gc.major_collections - s0.Gc.major_collections) )

(* A table resize or a slice request may ask for a few more; one per call
   is the bug. *)
let slack expected = 5 + (expected / 10)

let check_no_forced label f =
  let got, expected = collections f in
  if got > expected + slack expected then
    Alcotest.failf
      "%s: %d minor collections over %d calls, %d accounted for by the \
       words allocated and the major cycles"
      label got calls expected

let session () = Driver.create ~entry:"f" source

let test_reference () =
  let s = session () in
  check_no_forced "Driver.reference" (fun () ->
      match Driver.reference s ~args with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Driver.render_error e))

let test_design_run backend () =
  let s = session () in
  match Driver.compile s (Registry.get backend) with
  | Error e -> Alcotest.fail (Driver.render_error e)
  | Ok d ->
    let want = Driver.reference s ~args in
    Alcotest.(check bool) "matches the reference" true
      (Result.to_option want = Design.run_int d args);
    check_no_forced (backend ^ " Design.run") (fun () ->
        ignore (d.Design.run (Design.int_args args)))

let suite =
  ( "allocation",
    Alcotest.test_case "oracle forces no minor GC" `Quick test_reference
    :: List.map
         (fun b ->
           Alcotest.test_case (b ^ " run forces no minor GC") `Quick
             (test_design_run b))
         [ "bachc"; "handelc"; "c2verilog" ] )
