(* Netlist evaluator: combinational settling plus a cycle-accurate
   sequential stepper.

   Nodes are created in topological order with respect to combinational
   dependencies (the builder API guarantees this; only register next-state
   and memory write ports may point forward), so one in-order pass settles
   all combinational values.  Every settle is such a full sweep: no
   activity tracking, nothing to get wrong, which is what the reference
   semantics for the compiled engine (Netcomp) should be.  Registers and
   memories update between cycles with read-before-write semantics. *)

type probe = { on_value : cycle:int -> Netlist.signal -> Bitvec.t -> unit }

type stats = {
  mutable cycles : int; (* clock edges ([tick]s) taken *)
  mutable settles : int; (* settle passes *)
  mutable nodes_evaluated : int; (* node evaluations across all settles *)
  mutable events : int; (* evaluations whose value actually changed *)
  mutable wall_time : float; (* seconds inside [run_until_done] *)
}

type t = {
  netlist : Netlist.t;
  values : Bitvec.t array;
  input_vals : Bitvec.t array; (* resolved value per Input node id *)
  input_nodes : (int * string) array; (* Input node id, port name *)
  reg_state : Bitvec.t array; (* per Reg node id, current state *)
  mem_state : Bitvec.t array array; (* per memory, current contents *)
  mutable cycle : int;
  stats : stats;
  mutable probe : probe option; (* observation hook: fired on value commits *)
}

let create netlist =
  let n = Netlist.length netlist in
  let reg_state = Array.make (max n 1) (Bitvec.zero 1) in
  let input_vals = Array.make (max n 1) (Bitvec.zero 1) in
  let input_nodes = ref [] in
  for s = n - 1 downto 0 do
    match Netlist.node netlist s with
    | Reg { init; _ } -> reg_state.(s) <- init
    | Input name ->
      input_vals.(s) <- Bitvec.zero (Netlist.width netlist s);
      input_nodes := (s, name) :: !input_nodes
    | Const _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
    | Sext _ | Mem_read _ -> ()
  done;
  let mem_state =
    Array.map
      (fun (m : Netlist.mem) ->
        match m.init with
        | Some a ->
          if Array.length a <> m.depth then
            invalid_arg "Neteval: memory init size mismatch";
          Array.copy a
        | None -> Array.make m.depth (Bitvec.zero m.word_width))
      (Netlist.mems netlist)
  in
  { netlist;
    values = Array.make (max n 1) (Bitvec.zero 1);
    input_vals;
    input_nodes = Array.of_list !input_nodes;
    reg_state;
    mem_state;
    cycle = 0;
    stats =
      { cycles = 0; settles = 0; nodes_evaluated = 0; events = 0;
        wall_time = 0. };
    probe = None }

let set_probe t probe = t.probe <- Some probe

(* Observation only: fired after a value commit, never able to change it. *)
let notify t s v =
  match t.probe with
  | None -> ()
  | Some p -> p.on_value ~cycle:t.cycle s v

let apply_unop op a =
  match (op : Netlist.unop) with
  | U_not -> Bitvec.lognot a
  | U_neg -> Bitvec.neg a
  | U_reduce_or -> Bitvec.of_bool (not (Bitvec.is_zero a))

let apply_binop op a b =
  let open Bitvec in
  match (op : Netlist.binop) with
  | B_add -> add a b
  | B_sub -> sub a b
  | B_mul -> mul a b
  | B_udiv -> udiv a b
  | B_urem -> urem a b
  | B_sdiv -> sdiv a b
  | B_srem -> srem a b
  | B_and -> logand a b
  | B_or -> logor a b
  | B_xor -> logxor a b
  | B_shl -> shl a b
  | B_lshr -> lshr a b
  | B_ashr -> ashr a b
  | B_eq -> of_bool (equal a b)
  | B_ne -> of_bool (not (equal a b))
  | B_ult -> of_bool (ult a b)
  | B_ule -> of_bool (ule a b)
  | B_slt -> of_bool (slt a b)
  | B_sle -> of_bool (sle a b)

let eval_node t s =
  match Netlist.node t.netlist s with
  | Const bv -> bv
  | Input _ -> t.input_vals.(s)
  | Unop (op, a) -> apply_unop op t.values.(a)
  | Binop (op, a, b) -> apply_binop op t.values.(a) t.values.(b)
  | Mux { sel; if_true; if_false } ->
    if Bitvec.to_bool t.values.(sel) then t.values.(if_true)
    else t.values.(if_false)
  | Concat { hi; lo } -> Bitvec.concat t.values.(hi) t.values.(lo)
  | Extract { hi; lo; arg } -> Bitvec.extract ~hi ~lo t.values.(arg)
  | Zext { width; arg } -> Bitvec.zero_extend ~width t.values.(arg)
  | Sext { width; arg } -> Bitvec.sign_extend ~width t.values.(arg)
  | Reg _ -> t.reg_state.(s)
  | Mem_read { mem; addr } ->
    let contents = t.mem_state.(mem) in
    let a = Bitvec.to_int_unsigned t.values.(addr) in
    if a < Array.length contents then contents.(a)
    else Bitvec.zero (Netlist.width t.netlist s)

(** Resolve the input assoc list once into the per-node input values.
    Missing inputs read as zero. *)
let set_inputs t inputs =
  Array.iter
    (fun (s, name) ->
      let w = Netlist.width t.netlist s in
      t.input_vals.(s) <-
        (match List.assoc_opt name inputs with
        | Some bv -> Bitvec.resize ~signed:false ~width:w bv
        | None -> Bitvec.zero w))
    t.input_nodes

(* Settle with inputs already resolved by [set_inputs]. *)
let settle_resolved t =
  let n = Netlist.length t.netlist in
  for s = 0 to n - 1 do
    let v = eval_node t s in
    if not (Bitvec.equal v t.values.(s)) then begin
      t.values.(s) <- v;
      t.stats.events <- t.stats.events + 1;
      notify t s v
    end
  done;
  t.stats.settles <- t.stats.settles + 1;
  t.stats.nodes_evaluated <- t.stats.nodes_evaluated + n

let settle t ~inputs =
  set_inputs t inputs;
  settle_resolved t

let value t s = t.values.(s)

let output_signal t name =
  match List.assoc_opt name (Netlist.outputs t.netlist) with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf
         "Neteval.output: netlist %S has no output %S (outputs: %s)"
         (Netlist.name t.netlist) name
         (match Netlist.outputs t.netlist with
         | [] -> "<none>"
         | outs -> String.concat ", " (List.map fst outs)))

let output t name = value t (output_signal t name)
let cycle t = t.cycle
let stats t = t.stats
let netlist t = t.netlist

(** Advance state: clock edge after a [settle].  Next states and write
    ports read the settled [values], never the state being written, so
    committing in place is read-before-write. *)
let tick t =
  let nl = t.netlist in
  for s = 0 to Netlist.length nl - 1 do
    match Netlist.node nl s with
    | Reg { next; enable; _ } ->
      let enabled =
        match enable with
        | None -> true
        | Some e -> Bitvec.to_bool t.values.(e)
      in
      if enabled && next >= 0 then t.reg_state.(s) <- t.values.(next)
    | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
    | Zext _ | Sext _ | Mem_read _ -> ()
  done;
  Array.iteri
    (fun i (m : Netlist.mem) ->
      match m.write_port with
      | None -> ()
      | Some (we, addr, data) ->
        if Bitvec.to_bool t.values.(we) then begin
          let a = Bitvec.to_int_unsigned t.values.(addr) in
          if a < m.depth then t.mem_state.(i).(a) <- t.values.(data)
        end)
    (Netlist.mems t.netlist);
  t.cycle <- t.cycle + 1;
  t.stats.cycles <- t.cycle

(** Evaluate a purely combinational netlist once; also returns the
    evaluator counters for that settle. *)
let eval_combinational_stats ?probe netlist ~inputs =
  let t = create netlist in
  Option.iter (set_probe t) probe;
  settle t ~inputs;
  ( List.map (fun (name, s) -> (name, t.values.(s))) (Netlist.outputs netlist),
    t.stats )

let eval_combinational netlist ~inputs =
  fst (eval_combinational_stats netlist ~inputs)

(** Clock an existing evaluator until the 1-bit output [done_name] is set
    or [max_cycles] elapse; returns outputs and the cycle count.  The
    [done] output and the primary inputs are resolved to signal ids once,
    before the polling loop.  Exposed separately from [run_until_done] so
    callers that need the evaluator afterwards (probes) can create and
    keep their own instance. *)
let drive t ~inputs ~done_name ~max_cycles =
  let done_sig = output_signal t done_name in
  set_inputs t inputs;
  let t0 = Sys.time () in
  let rec go () =
    settle_resolved t;
    if Bitvec.to_bool t.values.(done_sig) then
      Ok
        ( List.map
            (fun (n, s) -> (n, t.values.(s)))
            (Netlist.outputs t.netlist),
          t.cycle )
    else if t.cycle >= max_cycles then Error `Timeout
    else begin
      tick t;
      go ()
    end
  in
  let r = go () in
  t.stats.wall_time <- t.stats.wall_time +. (Sys.time () -. t0);
  r

(** Run a sequential netlist until the 1-bit output [done_name] is set or
    [max_cycles] elapse; returns outputs, the cycle count and the
    counters. *)
let run_until_done_stats ?probe netlist ~inputs ~done_name ~max_cycles =
  let t = create netlist in
  Option.iter (set_probe t) probe;
  match drive t ~inputs ~done_name ~max_cycles with
  | Ok (outputs, cycles) -> Ok (outputs, cycles, t.stats)
  | Error `Timeout -> Error `Timeout

let run_until_done netlist ~inputs ~done_name ~max_cycles =
  match run_until_done_stats netlist ~inputs ~done_name ~max_cycles with
  | Ok (outputs, cycles, _) -> Ok (outputs, cycles)
  | Error `Timeout -> Error `Timeout
