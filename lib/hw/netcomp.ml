(* Compiled netlist simulation.

   Neteval walks the node graph on every settle (and on every tick),
   re-dispatching on constructors and boxing every intermediate value.
   Here the netlist builds its own simulator instead: one compile pass
   levelizes the combinational nodes into topological strata and emits a
   specialized [unit -> unit] closure per operator, all reading and
   writing a single unboxed [int] value array (values are stored masked,
   as unsigned bit patterns).  A settle is then a straight-line run over
   the closure arrays; a tick latches register next-values into a double
   buffer, commits memory write ports and swaps — no graph traversal
   anywhere on the cycle path.

   Fidelity: arithmetic is bit-identical to Bitvec at widths <= 62
   (masking by [(1 lsl w) - 1]; signed views via shift-extend; division
   by zero follows the hardware-divider convention; shifts at or beyond
   the width produce zero, sign bits for arithmetic right shifts).
   Designs with wider signals fall back to the Neteval full sweep
   transparently, so callers never see a capability error.

   Observation: probes reproduce Neteval's committed-change stream — an
   id-order walk comparing each signal against a shadow array (seeded
   with 1-bit zeros, exactly like Neteval's value array) fires the probe
   for every value that changed during the settle.  The walk only runs
   when a probe is attached, so unobserved cycles pay nothing. *)

let int_width_limit = 62

(* (1 lsl w) - 1 for w in 0..62, precomputed once *)
let masks =
  Array.init (int_width_limit + 1) (fun w -> (1 lsl w) - 1)

(* signed view of a masked [w]-bit pattern *)
let[@inline] sx v w = (v lsl (Sys.int_size - w)) asr (Sys.int_size - w)

let[@inline] to_bits bv = Int64.to_int (Bitvec.to_int64_unsigned bv)

let compilable nl =
  let ok = ref true in
  let check_w w = if w < 1 || w > int_width_limit then ok := false in
  let n = Netlist.length nl in
  for s = 0 to n - 1 do
    check_w (Netlist.width nl s);
    match Netlist.node nl s with
    | Netlist.Binop (op, a, b) ->
      (* Bitvec raises Width_mismatch on width-mixed operands (and eq/ne
         silently compare unequal); shifts accept any amount width. *)
      (match op with
      | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr -> ()
      | _ -> if Netlist.width nl a <> Netlist.width nl b then ok := false)
    | Netlist.Const _ | Netlist.Input _ | Netlist.Unop _ | Netlist.Mux _
    | Netlist.Concat _ | Netlist.Extract _ | Netlist.Zext _ | Netlist.Sext _
    | Netlist.Reg _ | Netlist.Mem_read _ -> ()
  done;
  Array.iter
    (fun (m : Netlist.mem) ->
      check_w m.word_width;
      (match m.write_port with
      | Some (_, _, data) ->
        if Netlist.width nl data <> m.word_width then ok := false
      | None -> ());
      match m.init with
      | Some cells ->
        Array.iter
          (fun c -> if Bitvec.width c <> m.word_width then ok := false)
          cells
      | None -> ())
    (Netlist.mems nl);
  !ok

type reg = { rs : int; next : int; enable : int (* -1 = always enabled *) }

type wport = { wmem : int; we : int; waddr : int; wdata : int; wdepth : int }

type comp = {
  netlist : Netlist.t;
  widths : int array;
  values : int array; (* masked unsigned bit patterns, one per signal *)
  levels : (unit -> unit) array array; (* strata of specialized closures *)
  closure_count : int;
  input_nodes : (int * string) array;
  regs : reg array;
  reg_buf : int array; (* double buffer: next values latched here *)
  reg_init : (int * int) array; (* signal id, initial bits — for [reset] *)
  mem_state : int array array;
  mem_init : int array array;
  wports : wport array;
  mutable ccycle : int;
  cstats : Neteval.stats;
  mutable probe : Neteval.probe option;
  prev : Bitvec.t array; (* shadow values for the observed-change walk *)
}

(* the fallback interpreter sits behind a mutable field so [reset] can
   rebuild it: a fresh Neteval is the way back to cycle 0 *)
type interp = { inl : Netlist.t; mutable ie : Neteval.t }

type t = Compiled of comp | Interp of interp

let compile nl =
  let n = Netlist.length nl in
  let widths = Array.init n (Netlist.width nl) in
  let values = Array.make (max n 1) 0 in
  let v = values in
  let mems = Netlist.mems nl in
  let mem_init =
    Array.map
      (fun (m : Netlist.mem) ->
        match m.Netlist.init with
        | Some cells -> Array.map to_bits cells
        | None -> Array.make m.Netlist.depth 0)
      mems
  in
  let mem_state = Array.map Array.copy mem_init in
  let input_nodes = ref [] in
  let regs = ref [] in
  let reg_init = ref [] in
  (* levelize: id order is topological for combinational deps, so one
     in-order pass computes level(s) = 1 + max(level(comb deps)) *)
  let lev = Array.make (max n 1) 0 in
  let closures = Array.make (max n 1) None in
  for s = 0 to n - 1 do
    let node = Netlist.node nl s in
    let deps = Netlist.comb_deps node in
    lev.(s) <-
      (match deps with
      | [] -> 0
      | _ -> 1 + List.fold_left (fun acc d -> max acc lev.(d)) 0 deps);
    let w = widths.(s) in
    let m = masks.(w) in
    let cl =
      match node with
      | Netlist.Const bv ->
        v.(s) <- to_bits bv;
        None
      | Netlist.Input name ->
        input_nodes := (s, name) :: !input_nodes;
        None
      | Netlist.Reg { init; next; enable } ->
        v.(s) <- to_bits init;
        reg_init := (s, v.(s)) :: !reg_init;
        if next >= 0 then begin
          let enable = match enable with Some e -> e | None -> -1 in
          regs := { rs = s; next; enable } :: !regs
        end;
        None
      | Netlist.Unop (op, a) ->
        Some
          (match op with
          | Netlist.U_not -> fun () -> v.(s) <- v.(a) lxor m
          | Netlist.U_neg -> fun () -> v.(s) <- -v.(a) land m
          | Netlist.U_reduce_or ->
            fun () -> v.(s) <- (if v.(a) = 0 then 0 else 1))
      | Netlist.Binop (op, a, b) ->
        let ow = widths.(a) in
        (* operand width: arithmetic results carry it, comparisons are
           1-bit; [compilable] guarantees widths.(b) = ow except for
           shifts, whose amount may have any width *)
        let om = masks.(ow) in
        Some
          (match op with
          | Netlist.B_add -> fun () -> v.(s) <- (v.(a) + v.(b)) land om
          | Netlist.B_sub -> fun () -> v.(s) <- (v.(a) - v.(b)) land om
          | Netlist.B_mul -> fun () -> v.(s) <- v.(a) * v.(b) land om
          | Netlist.B_udiv ->
            fun () ->
              let d = v.(b) in
              v.(s) <- (if d = 0 then om else v.(a) / d)
          | Netlist.B_urem ->
            fun () ->
              let d = v.(b) in
              v.(s) <- (if d = 0 then v.(a) else v.(a) mod d)
          | Netlist.B_sdiv ->
            fun () ->
              let d = v.(b) in
              v.(s) <-
                (if d = 0 then om else sx v.(a) ow / sx d ow land om)
          | Netlist.B_srem ->
            fun () ->
              let d = v.(b) in
              v.(s) <-
                (if d = 0 then v.(a) else sx v.(a) ow mod sx d ow land om)
          | Netlist.B_and -> fun () -> v.(s) <- v.(a) land v.(b)
          | Netlist.B_or -> fun () -> v.(s) <- v.(a) lor v.(b)
          | Netlist.B_xor -> fun () -> v.(s) <- v.(a) lxor v.(b)
          | Netlist.B_shl ->
            fun () ->
              let amt = v.(b) in
              v.(s) <- (if amt >= ow then 0 else v.(a) lsl amt land om)
          | Netlist.B_lshr ->
            fun () ->
              let amt = v.(b) in
              v.(s) <- (if amt >= ow then 0 else v.(a) lsr amt)
          | Netlist.B_ashr ->
            fun () ->
              let amt = v.(b) in
              let amt = if amt > ow - 1 then ow - 1 else amt in
              v.(s) <- sx v.(a) ow asr amt land om
          | Netlist.B_eq ->
            fun () -> v.(s) <- (if v.(a) = v.(b) then 1 else 0)
          | Netlist.B_ne ->
            fun () -> v.(s) <- (if v.(a) <> v.(b) then 1 else 0)
          | Netlist.B_ult ->
            fun () -> v.(s) <- (if v.(a) < v.(b) then 1 else 0)
          | Netlist.B_ule ->
            fun () -> v.(s) <- (if v.(a) <= v.(b) then 1 else 0)
          | Netlist.B_slt ->
            fun () -> v.(s) <- (if sx v.(a) ow < sx v.(b) ow then 1 else 0)
          | Netlist.B_sle ->
            fun () ->
              v.(s) <- (if sx v.(a) ow <= sx v.(b) ow then 1 else 0))
      | Netlist.Mux { sel; if_true; if_false } ->
        Some
          (fun () -> v.(s) <- (if v.(sel) <> 0 then v.(if_true) else v.(if_false)))
      | Netlist.Concat { hi; lo } ->
        let lw = widths.(lo) in
        Some (fun () -> v.(s) <- (v.(hi) lsl lw) lor v.(lo))
      | Netlist.Extract { hi; lo; arg } ->
        let em = masks.(hi - lo + 1) in
        Some (fun () -> v.(s) <- (v.(arg) lsr lo) land em)
      | Netlist.Zext { arg; _ } -> Some (fun () -> v.(s) <- v.(arg))
      | Netlist.Sext { arg; _ } ->
        let aw = widths.(arg) in
        Some (fun () -> v.(s) <- sx v.(arg) aw land m)
      | Netlist.Mem_read { mem; addr } ->
        let contents = mem_state.(mem) in
        let depth = Array.length contents in
        Some
          (fun () ->
            let a = v.(addr) in
            v.(s) <- (if a < depth then contents.(a) else 0))
    in
    closures.(s) <- cl
  done;
  (* bucket closures into strata, keeping id order within each level *)
  let max_lev = Array.fold_left max 0 lev in
  let buckets = Array.make (max_lev + 1) [] in
  let count = ref 0 in
  for s = n - 1 downto 0 do
    match closures.(s) with
    | Some f ->
      buckets.(lev.(s)) <- f :: buckets.(lev.(s));
      incr count
    | None -> ()
  done;
  let levels =
    Arrays.of_list ~fill:[||]
      (List.filter_map
         (fun b ->
           match b with
           | [] -> None
           | _ -> Some (Arrays.of_list ~fill:(ignore : unit -> unit) b))
         (Array.to_list buckets))
  in
  let wports =
    let acc = ref [] in
    Array.iteri
      (fun i (mm : Netlist.mem) ->
        match mm.Netlist.write_port with
        | Some (we, waddr, wdata) ->
          acc :=
            { wmem = i; we; waddr; wdata; wdepth = mm.Netlist.depth } :: !acc
        | None -> ())
      mems;
    Array.of_list (List.rev !acc)
  in
  let regs = Array.of_list (List.rev !regs) in
  { netlist = nl;
    widths;
    values;
    levels;
    closure_count = !count;
    input_nodes = Array.of_list (List.rev !input_nodes);
    regs;
    reg_buf = Array.make (max (Array.length regs) 1) 0;
    reg_init = Array.of_list !reg_init;
    mem_state;
    mem_init;
    wports;
    ccycle = 0;
    cstats =
      { Neteval.cycles = 0; settles = 0; nodes_evaluated = 0; events = 0;
        wall_time = 0. };
    probe = None;
    prev = Array.make (max n 1) (Bitvec.zero 1) }

let create nl =
  if compilable nl then Compiled (compile nl)
  else Interp { inl = nl; ie = Neteval.create nl }

let compiled = function Compiled _ -> true | Interp _ -> false
let num_levels = function Compiled c -> Array.length c.levels | Interp _ -> 0

(* Back to power-on state, keeping the compiled closures: registers and
   memories reload their initial images, the cycle counter and the
   probe's shadow array rewind.  This is what makes the engine reusable —
   compile once, run many.  (The interpreter fallback is rebuilt
   instead.) *)
let reset = function
  | Compiled c ->
    Array.iter (fun (s, b) -> c.values.(s) <- b) c.reg_init;
    Array.iteri
      (fun i init -> Array.blit init 0 c.mem_state.(i) 0 (Array.length init))
      c.mem_init;
    c.ccycle <- 0;
    c.cstats.Neteval.cycles <- 0;
    Array.fill c.prev 0 (Array.length c.prev) (Bitvec.zero 1)
  | Interp i -> i.ie <- Neteval.create i.inl

let set_probe t p =
  match t with
  | Compiled c -> c.probe <- Some p
  | Interp i -> Neteval.set_probe i.ie p

let bv_of c s =
  Bitvec.make ~width:c.widths.(s) (Int64.of_int c.values.(s))

(* The observed-change walk: id order over all signals, exactly the
   committed-change stream Neteval's settle produces (its value array is
   likewise seeded with 1-bit zeros, so the first settle reports every
   signal whose settled value differs from a 1-bit zero). *)
let notify_changes c (p : Neteval.probe) =
  let n = Array.length c.widths in
  for s = 0 to n - 1 do
    let v = bv_of c s in
    if not (Bitvec.equal v c.prev.(s)) then begin
      c.prev.(s) <- v;
      c.cstats.Neteval.events <- c.cstats.Neteval.events + 1;
      p.Neteval.on_value ~cycle:c.ccycle s v
    end
  done

let set_inputs_c c inputs =
  Array.iter
    (fun (s, name) ->
      let w = c.widths.(s) in
      let bv =
        match List.assoc_opt name inputs with
        | Some bv -> Bitvec.resize ~signed:false ~width:w bv
        | None -> Bitvec.zero w
      in
      c.values.(s) <- to_bits bv)
    c.input_nodes

let settle_resolved c =
  c.cstats.Neteval.settles <- c.cstats.Neteval.settles + 1;
  c.cstats.Neteval.nodes_evaluated <-
    c.cstats.Neteval.nodes_evaluated + c.closure_count;
  let levels = c.levels in
  for l = 0 to Array.length levels - 1 do
    let level = levels.(l) in
    for i = 0 to Array.length level - 1 do
      level.(i) ()
    done
  done;
  match c.probe with None -> () | Some p -> notify_changes c p

let settle t ~inputs =
  match t with
  | Compiled c ->
    set_inputs_c c inputs;
    settle_resolved c
  | Interp i -> Neteval.settle i.ie ~inputs

let tick_c c =
  let v = c.values in
  (* phase 1: latch next values (read-before-write across registers) *)
  let nregs = Array.length c.regs in
  for i = 0 to nregs - 1 do
    let r = c.regs.(i) in
    c.reg_buf.(i) <-
      (if r.enable >= 0 && v.(r.enable) = 0 then v.(r.rs) else v.(r.next))
  done;
  (* memory write ports read pre-commit values too *)
  for i = 0 to Array.length c.wports - 1 do
    let p = c.wports.(i) in
    if v.(p.we) <> 0 then begin
      let a = v.(p.waddr) in
      if a < p.wdepth then c.mem_state.(p.wmem).(a) <- v.(p.wdata)
    end
  done;
  (* phase 2: commit *)
  for i = 0 to nregs - 1 do
    v.(c.regs.(i).rs) <- c.reg_buf.(i)
  done;
  c.ccycle <- c.ccycle + 1;
  c.cstats.Neteval.cycles <- c.ccycle

let tick = function Compiled c -> tick_c c | Interp i -> Neteval.tick i.ie

let cycle = function Compiled c -> c.ccycle | Interp i -> Neteval.cycle i.ie

let value t s =
  match t with Compiled c -> bv_of c s | Interp i -> Neteval.value i.ie s

let output_signal_c c name =
  match List.assoc_opt name (Netlist.outputs c.netlist) with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf
         "Netcomp.output: netlist %S has no output %S (outputs: %s)"
         (Netlist.name c.netlist) name
         (match Netlist.outputs c.netlist with
         | [] -> "<none>"
         | outs -> String.concat ", " (List.map fst outs)))

let output t name =
  match t with
  | Compiled c -> bv_of c (output_signal_c c name)
  | Interp i -> Neteval.output i.ie name

let stats = function Compiled c -> c.cstats | Interp i -> Neteval.stats i.ie

let drive t ~inputs ~done_name ~max_cycles =
  match t with
  | Interp i -> Neteval.drive i.ie ~inputs ~done_name ~max_cycles
  | Compiled c ->
    let done_sig = output_signal_c c done_name in
    set_inputs_c c inputs;
    let t0 = Sys.time () in
    let rec go () =
      settle_resolved c;
      if c.values.(done_sig) <> 0 then
        Ok
          ( List.map
              (fun (n, s) -> (n, bv_of c s))
              (Netlist.outputs c.netlist),
            c.ccycle )
      else if c.ccycle >= max_cycles then Error `Timeout
      else begin
        tick_c c;
        go ()
      end
    in
    let r = go () in
    c.cstats.Neteval.wall_time <-
      c.cstats.Neteval.wall_time +. (Sys.time () -. t0);
    r

let eval_combinational_stats ?probe nl ~inputs =
  let t = create nl in
  Option.iter (set_probe t) probe;
  settle t ~inputs;
  ( List.map (fun (name, s) -> (name, value t s)) (Netlist.outputs nl),
    stats t )

let eval_combinational nl ~inputs =
  fst (eval_combinational_stats nl ~inputs)

let run_until_done_stats ?probe nl ~inputs ~done_name ~max_cycles =
  let t = create nl in
  Option.iter (set_probe t) probe;
  match drive t ~inputs ~done_name ~max_cycles with
  | Ok (outputs, cycles) -> Ok (outputs, cycles, stats t)
  | Error `Timeout -> Error `Timeout

let run_until_done nl ~inputs ~done_name ~max_cycles =
  match run_until_done_stats nl ~inputs ~done_name ~max_cycles with
  | Ok (outputs, cycles, _) -> Ok (outputs, cycles)
  | Error `Timeout -> Error `Timeout
