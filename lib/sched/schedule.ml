(* Operation scheduling for behavioural synthesis.

   Implements the classic repertoire: ASAP, ALAP, and resource-constrained
   list scheduling with operator chaining under a cycle-time budget.  A
   schedule assigns each instruction of a basic block to a control step;
   the FSMD backends then emit one FSM state per step.

   Correctness contract with the FSMD simulator/elaborator (rtl/):
     - instructions placed in the same step keep their original order and
       see each other's results as wires (so RAW chains within a step are
       legal when the delay budget allows);
     - a load may not be placed in the same or an earlier step than a
       store it depends on (synchronous-write memories) unless
       [mem_forwarding] is set (register-file memories, as in
       Transmogrifier C's register-rich FPGA target);
     - WAR/WAW edges only require non-decreasing steps, since original
       order is preserved within a step. *)

type resource_class = Adder | Multiplier | Divider | Shifter | Logic | Mem

let class_of_instr = function
  | Cir.I_bin { op; _ } -> (
    match op with
    | Netlist.B_add | Netlist.B_sub | Netlist.B_ult | Netlist.B_ule
    | Netlist.B_slt | Netlist.B_sle -> Adder
    | Netlist.B_mul -> Multiplier
    | Netlist.B_udiv | Netlist.B_urem | Netlist.B_sdiv | Netlist.B_srem ->
      Divider
    | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr -> Shifter
    | Netlist.B_and | Netlist.B_or | Netlist.B_xor | Netlist.B_eq
    | Netlist.B_ne -> Logic)
  | Cir.I_un { op = Netlist.U_neg; _ } -> Adder
  | Cir.I_un { op = Netlist.U_not | Netlist.U_reduce_or; _ } -> Logic
  | Cir.I_mov _ | Cir.I_cast _ | Cir.I_mux _ -> Logic
  | Cir.I_load _ | Cir.I_store _ -> Mem

type resources = {
  adders : int option; (* None = unconstrained *)
  multipliers : int option;
  dividers : int option;
  shifters : int option;
  mem_read_ports : int; (* per region, per step *)
  mem_write_ports : int;
  chain_budget : float; (* max combinational delay per step; infinity ok *)
  mem_forwarding : bool; (* same-step store->load allowed (register file) *)
}

let unconstrained =
  { adders = None; multipliers = None; dividers = None; shifters = None;
    mem_read_ports = max_int; mem_write_ports = max_int;
    chain_budget = infinity; mem_forwarding = false }

(** A typical datapath allocation: used as the default by Bach C. *)
let default_allocation =
  { adders = Some 2; multipliers = Some 1; dividers = Some 1;
    shifters = Some 1; mem_read_ports = 1; mem_write_ports = 1;
    chain_budget = 20.; mem_forwarding = false }

let instr_delay func instr =
  let w_of = function
    | Cir.O_reg r -> Cir.reg_width func r
    | Cir.O_imm bv -> Bitvec.width bv
  in
  match instr with
  | Cir.I_bin { op; a; b; _ } ->
    (Area.binop_cost op (max (w_of a) (w_of b))).Area.delay
  | Cir.I_un { op; a; _ } -> (Area.unop_cost op (w_of a)).Area.delay
  | Cir.I_mux _ -> 2.
  | Cir.I_mov _ | Cir.I_cast _ -> 0.
  | Cir.I_load { region; _ } ->
    let m = func.Cir.fn_regions.(region) in
    Area.flog2 m.Cir.rg_words +. 2.
  | Cir.I_store _ -> 1.

type schedule = {
  steps : int array; (* control step of each instruction *)
  num_steps : int;
  step_delay : float array; (* accumulated chained delay per step *)
}

(* Count how many instances of a constrained class fit per step; at least
   one, or scheduling could never make progress. *)
let capacity resources cls =
  let at_least_one = function
    | Some k -> max 1 k
    | None -> max_int
  in
  match cls with
  | Adder -> at_least_one resources.adders
  | Multiplier -> at_least_one resources.multipliers
  | Divider -> at_least_one resources.dividers
  | Shifter -> at_least_one resources.shifters
  | Logic -> max_int
  | Mem -> max_int (* per-region ports handled separately *)

(* The one resource an instruction competes for within a step: its class,
   or for a memory access its (region, direction) port — class [Mem] is
   unbounded, so the port is a memory op's only limit. *)
type resource = Class of resource_class | Port of int * [ `Read | `Write ]

let resource_of resources instr =
  match Cir.memory_access instr with
  | Some (region, `Read) -> (Port (region, `Read), max 1 resources.mem_read_ports)
  | Some (region, `Write) ->
    (Port (region, `Write), max 1 resources.mem_write_ports)
  | None ->
    let cls = class_of_instr instr in
    (Class cls, capacity resources cls)

(* A binary min-heap of distinct ints (priority ranks), grown on demand. *)
module Heap = struct
  type t = { mutable keys : int array; mutable size : int }

  let create () = { keys = [||]; size = 0 }

  let push h x =
    if h.size = Array.length h.keys then begin
      let keys = Array.make (max 8 (2 * h.size)) 0 in
      Array.blit h.keys 0 keys 0 h.size;
      h.keys <- keys
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > x do
      h.keys.(!i) <- h.keys.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.keys.(!i) <- x

  (* The least key, removed; the heap must be non-empty. *)
  let pop_min h =
    let top = h.keys.(0) in
    h.size <- h.size - 1;
    let x = h.keys.(h.size) and n = h.size in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && h.keys.(l + 1) < h.keys.(l) then l + 1 else l in
      if c < n && h.keys.(c) < x then begin
        h.keys.(!i) <- h.keys.(c);
        i := c
      end
      else sifting := false
    done;
    h.keys.(!i) <- x;
    top
end

(* A resource's use in the current step and the priority ranks of the
   ready ops waiting for it. *)
type bucket = { cap : int; mutable used : int; ready : Heap.t }

(* List scheduling over a prebuilt dependence graph.

   Ready-list formulation.  Each op counts its unreleased predecessor
   edges (duplicates included); it joins its bucket's ready set when the
   count reaches zero.  A step runs in rounds: every ready op is offered
   in priority order (height descending, index ascending), and ops
   released by a placement wait for the next round, never the current
   one.  A non-forwarding store->load edge is released only when the
   step closes, so the load lands in a later step.  Within a round, ops
   interact only through their own bucket's counter, so each bucket is
   drained on its own and stops at the first op it cannot hold; an op
   that fits its bucket but misses the chain budget waits out the step.
   Every op is offered at most twice and each ready set is a binary
   min-heap of ranks, so a block costs O((n + e) log n) plus one visit
   per bucket per step.  The placements are those of
   rescanning every instruction each round (test/sched_ref.ml). *)
let schedule_graph (func : Cir.func) (resources : resources) (g : Dep.graph)
    : schedule =
  let n = Array.length g.Dep.instrs in
  if n = 0 then { steps = [||]; num_steps = 0; step_delay = [||] }
  else begin
    (* priority: height in the dependence DAG *)
    let height = Array.make n 1 in
    for i = n - 1 downto 0 do
      List.iter
        (fun (s, _) -> if height.(s) + 1 > height.(i) then height.(i) <- height.(s) + 1)
        g.Dep.succs.(i)
    done;
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> compare height.(b) height.(a)) order;
    let rank = Array.make n 0 in
    Array.iteri (fun r i -> rank.(i) <- r) order;
    let delay = Array.map (instr_delay func) g.Dep.instrs in
    let mem = Array.map Cir.memory_access g.Dep.instrs in
    let buckets = Hashtbl.create 8 in
    let bucket_of =
      Array.map
        (fun instr ->
          let key, cap = resource_of resources instr in
          match Hashtbl.find_opt buckets key with
          | Some b -> b
          | None ->
            let b = { cap; used = 0; ready = Heap.create () } in
            Hashtbl.add buckets key b;
            b)
        g.Dep.instrs
    in
    let all_buckets = Hashtbl.fold (fun _ b acc -> b :: acc) buckets [] in
    let make_ready i = Heap.push bucket_of.(i).ready rank.(i) in
    let pending = Array.map List.length g.Dep.preds in
    let release i =
      pending.(i) <- pending.(i) - 1;
      pending.(i) = 0
    in
    let crosses_step p s =
      (not resources.mem_forwarding)
      && (match mem.(p) with Some (_, `Write) -> true | _ -> false)
      && match mem.(s) with Some (_, `Read) -> true | _ -> false
    in
    Array.iteri (fun i k -> if k = 0 then make_ready i) pending;
    let steps = Array.make n (-1) in
    let arrival = Array.make n 0. in (* completion time within its step *)
    let scheduled = ref 0 in
    let step = ref 0 in
    let step_delays = ref [] in
    while !scheduled < n do
      List.iter (fun b -> b.used <- 0) all_buckets;
      let max_arrival = ref 0. in
      let next_round = ref [] in
      let chain_missed = ref [] in (* back in the ready set next step *)
      let crossing = ref [] in (* store->load edges released next step *)
      let offer i =
        (* earliest start within this step given chained RAW deps *)
        let ready_time =
          List.fold_left
            (fun acc (p, kind) ->
              match kind with
              | Dep.Raw when steps.(p) = !step -> Float.max acc arrival.(p)
              | Dep.Raw | Dep.War | Dep.Waw | Dep.Mem -> acc)
            0. g.Dep.preds.(i)
        in
        let finish = ready_time +. delay.(i) in
        (* an op too slow for any budget still gets a step alone *)
        let oversized = delay.(i) > resources.chain_budget in
        if finish <= resources.chain_budget || (oversized && ready_time = 0.)
        then begin
          steps.(i) <- !step;
          arrival.(i) <- finish;
          max_arrival := Float.max !max_arrival finish;
          let b = bucket_of.(i) in
          b.used <- b.used + 1;
          incr scheduled;
          List.iter
            (fun (s, kind) ->
              if kind = Dep.Mem && crosses_step i s then
                crossing := s :: !crossing
              else if release s then next_round := s :: !next_round)
            g.Dep.succs.(i)
        end
        else chain_missed := i :: !chain_missed
      in
      let rec drain b =
        if b.used < b.cap && b.ready.Heap.size > 0 then begin
          offer order.(Heap.pop_min b.ready);
          drain b
        end
      in
      List.iter drain all_buckets;
      while !next_round <> [] do
        let fresh = !next_round in
        next_round := [];
        List.iter make_ready fresh;
        List.iter (fun i -> drain bucket_of.(i)) fresh
      done;
      step_delays := !max_arrival :: !step_delays;
      List.iter make_ready !chain_missed;
      List.iter (fun s -> if release s then make_ready s) !crossing;
      incr step
    done;
    (* drop trailing empty steps (can happen if last iteration placed none) *)
    let num_steps = Array.fold_left (fun acc s -> max acc (s + 1)) 0 steps in
    { steps;
      num_steps;
      step_delay =
        Array.of_list (List.rev !step_delays) |> fun a ->
        Array.sub a 0 (min num_steps (Array.length a)) }
  end

(** Resource-constrained list scheduling with chaining of [instrs] (one
    basic block).  Priority is longest path to a sink. *)
let list_schedule func resources instrs =
  schedule_graph func resources (Dep.of_instrs instrs)

(** ASAP schedule: list scheduling with no resource limits. *)
let asap func instrs = list_schedule func unconstrained instrs

(* Latest steps within the makespan of [base], the ASAP schedule of [g]. *)
let alap_of (g : Dep.graph) (base : schedule) =
  let n = Array.length g.Dep.instrs in
  let latest = Array.make n (max 0 (base.num_steps - 1)) in
  let is_store i =
    match Cir.memory_access g.Dep.instrs.(i) with
    | Some (_, `Write) -> true
    | Some (_, `Read) | None -> false
  and is_load i =
    match Cir.memory_access g.Dep.instrs.(i) with
    | Some (_, `Read) -> true
    | Some (_, `Write) | None -> false
  in
  for i = n - 1 downto 0 do
    List.iter
      (fun (s, kind) ->
        let bound =
          match kind with
          | Dep.Mem when is_store i && is_load s -> latest.(s) - 1
          | Dep.Raw | Dep.Mem | Dep.War | Dep.Waw -> latest.(s)
        in
        if bound < latest.(i) then latest.(i) <- max 0 bound)
      g.Dep.succs.(i)
  done;
  { base with steps = latest }

(** ALAP schedule derived from ASAP by pushing every op as late as its
    successors allow within the ASAP makespan.  Uses the same dependence
    model as the unconstrained ASAP: RAW chains may share a step; only
    store->load pairs need a step boundary. *)
let alap func instrs =
  let g = Dep.of_instrs instrs in
  alap_of g (schedule_graph func unconstrained g)

(** Slack (ALAP - ASAP step) of each instruction: zero-slack ops are on the
    critical path; used by E7's exploration report. *)
let slack func instrs =
  let g = Dep.of_instrs instrs in
  let a = schedule_graph func unconstrained g in
  let l = alap_of g a in
  Array.init (Array.length a.steps) (fun i -> l.steps.(i) - a.steps.(i))

(** Parallelism profile: how many operations issue in each step. *)
let ops_per_step schedule =
  let counts = Array.make (max 1 schedule.num_steps) 0 in
  Array.iter
    (fun s -> if s >= 0 then counts.(s) <- counts.(s) + 1)
    schedule.steps;
  counts
