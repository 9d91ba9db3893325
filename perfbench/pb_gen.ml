(* Seeded input generators.  Every input the system sees comes from here
   and depends only on the seed: the compare-cold program set and the
   big-kernel set. *)

type program = {
  name : string;
  source : string;
  entry : string;
  vectors : int list list;
}

(* Independent streams per purpose, so changing one generator's draw
   count never shifts another's inputs. *)
let rng ~seed purpose = Random.State.make [| seed; Hashtbl.hash purpose |]

(* Fisher-Yates, in place. *)
let shuffle rs a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let corpus () =
  List.map
    (fun (w : Workloads.t) ->
      { name = w.Workloads.name;
        source = w.Workloads.source;
        entry = w.Workloads.entry;
        vectors = w.Workloads.arg_sets })
    Workloads.all

let fuzz_program (d : Dialect.t) ~seed ~index =
  { name = Printf.sprintf "fuzz-%s-%d" d.Dialect.name index;
    source = Pretty.program_to_string (Fuzzgen.generate d ~seed ~index);
    entry = Fuzz.entry;
    vectors = Fuzz.default_arg_sets }

(* --- compare-cold ------------------------------------------------------ *)

(* Fuzz programs per dialect.  Sized so one pass over the set takes a
   few seconds on a 2-core x86 box: enough programs that the seed's draw
   averages out (the hardware-quality geomeans move by a few percent from
   seed to seed), few enough for several passes a run. *)
let fuzz_per_dialect = 200

let compare_cold_set ~seed =
  let fuzz_seed = Random.State.bits (rng ~seed "compare-cold") in
  corpus ()
  @ List.concat_map
      (fun d ->
        List.init fuzz_per_dialect (fun index ->
            fuzz_program d ~seed:fuzz_seed ~index))
      (Fuzz.default_dialects ())

(* --- big-kernels ------------------------------------------------------- *)

(* A loop kernel whose body is straight-line code.

   [Resource]: many independent accumulators, each updated once or twice
   per iteration through a multiply or a memory read, so ResMII (one
   multiplier, one read port per region) binds and RecMII stays tiny.

   [Recurrence]: every update is logic (unbounded resources) and each
   accumulator is updated [rec_depth] times per iteration, so the
   loop-carried chains set RecMII = [rec_depth] and ResMII stays at 1.

   Sizes are statement counts; CIR instruction counts come out at about
   two to three per statement. *)
type family = Resource | Recurrence

type kernel = { kprog : program; family : family; stmts : int }

let rec_depth = 6
let trips = 3

let kernel_sizes = [ (Resource, 300); (Recurrence, 450); (Resource, 600);
                     (Recurrence, 750); (Resource, 900) ]

let gen_kernel rs ~index (family, stmts) =
  let b = Buffer.create (stmts * 40) in
  let accs =
    match family with
    | Resource -> max 1 (stmts / 2)
    | Recurrence -> max 1 (stmts / rec_depth)
  in
  let const () = 1 + Random.State.int rs 1000 in
  (* each statement form exactly a third of the time, in seeded order, so
     a kernel's cost and its MIIs do not depend on the seed's draw *)
  let forms = Array.init stmts (fun s -> s mod 3) in
  shuffle rs forms;
  Buffer.add_string b "int mem[16];\nint k(int n) {\n";
  for a = 0 to accs - 1 do
    Printf.bprintf b "  int a%d = n + %d;\n" a (const ())
  done;
  Printf.bprintf b "  for (int i = 0; i < %d; i = i + 1) {\n" trips;
  for s = 0 to stmts - 1 do
    let a = s mod accs in
    match family with
    | Resource -> (
      match forms.(s) with
      | 0 -> Printf.bprintf b "    a%d = a%d + (i * %d);\n" a a (const ())
      | 1 -> Printf.bprintf b "    a%d = a%d + mem[%d];\n" a a (const () land 15)
      | _ -> Printf.bprintf b "    a%d = a%d - (n * %d);\n" a a (const ()))
    | Recurrence -> (
      match forms.(s) with
      | 0 -> Printf.bprintf b "    a%d = a%d ^ (i & %d);\n" a a (const ())
      | 1 -> Printf.bprintf b "    a%d = a%d | (n & %d);\n" a a (const ())
      | _ -> Printf.bprintf b "    a%d = a%d ^ %d;\n" a a (const ()))
  done;
  Buffer.add_string b "  }\n  int r = 0;\n";
  for a = 0 to accs - 1 do
    Printf.bprintf b "  r = r ^ a%d;\n" a
  done;
  Buffer.add_string b "  return r;\n}\n";
  { kprog =
      { name =
          Printf.sprintf "kernel%d-%s-%d" index
            (match family with Resource -> "res" | Recurrence -> "rec")
            stmts;
        source = Buffer.contents b;
        entry = "k";
        vectors = [ [ Random.State.int rs 100 ] ] };
    family;
    stmts }

let big_kernel_set ~seed =
  let rs = rng ~seed "big-kernels" in
  List.mapi (fun index size -> gen_kernel rs ~index size) kernel_sizes
