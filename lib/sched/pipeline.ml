(* Modulo scheduling (software/hardware pipelining) — experiment E2.

   The paper: "Pipelining works well on regular loops, e.g., in scientific
   computation, but is less effective in general.  Again, dependencies and
   control-flow transfers limit parallelism."

   We implement the standard machinery: extract an innermost loop whose
   body is straight-line (control flow inside the body makes the loop
   "irregular" and, absent if-conversion, unpipelineable); compute the
   recurrence-constrained minimum initiation interval RecMII from
   loop-carried dependence cycles, the resource-constrained ResMII from
   operator counts; then run iterative modulo scheduling, raising II until
   a legal schedule exists.  The pipeline latency model charges whole
   cycles per operation (no chaining): pipelining trades clock-period
   slack for throughput. *)

type latency_model = { of_instr : Cir.instr -> int }

(* Default per-operation latencies in cycles. *)
let default_latency =
  { of_instr =
      (fun instr ->
        match instr with
        | Cir.I_bin { op; _ } -> (
          match op with
          | Netlist.B_mul -> 3
          | Netlist.B_udiv | Netlist.B_urem | Netlist.B_sdiv
          | Netlist.B_srem -> 12
          | Netlist.B_add | Netlist.B_sub | Netlist.B_and | Netlist.B_or
          | Netlist.B_xor | Netlist.B_shl | Netlist.B_lshr | Netlist.B_ashr
          | Netlist.B_eq | Netlist.B_ne | Netlist.B_ult | Netlist.B_ule
          | Netlist.B_slt | Netlist.B_sle -> 1)
        | Cir.I_un _ | Cir.I_mux _ -> 1
        | Cir.I_mov _ | Cir.I_cast _ -> 0
        | Cir.I_load _ -> 2
        | Cir.I_store _ -> 1) }

type dep_edge = { from_i : int; to_i : int; latency : int; distance : int }

type loop_body = {
  instrs : Cir.instr array;
  edges : dep_edge list;
}

exception Irregular of string

(** Extract one iteration of the innermost loop of [func] as a straight-
    line instruction sequence with intra- and inter-iteration dependence
    edges.  Raises [Irregular] when the loop body branches internally. *)
let extract_loop (func : Cir.func) (latency : latency_model) : loop_body =
  let cfg = Cfg.build func in
  let loops = Cfg.natural_loops cfg in
  if loops = [] then raise (Irregular "no loop found");
  (* innermost = smallest body *)
  let loop =
    List.fold_left
      (fun best l ->
        if List.length l.Cfg.body < List.length best.Cfg.body then l else best)
      (List.hd loops) (List.tl loops)
  in
  (* The body must be a simple cycle header -> b1 -> ... -> latch -> header
     with branching only at the header (the exit test). *)
  let ordered =
    let rec walk acc b =
      if b = loop.Cfg.header && acc <> [] then List.rev acc
      else
        let blk = Cir.block func b in
        match blk.Cir.term with
        | Cir.T_jump next when List.mem next loop.Cfg.body ->
          walk (b :: acc) next
        | Cir.T_branch { if_true; if_false; _ }
          when b = loop.Cfg.header
               && (List.mem if_true loop.Cfg.body
                  || List.mem if_false loop.Cfg.body) ->
          let inside =
            if List.mem if_true loop.Cfg.body then if_true else if_false
          in
          walk (b :: acc) inside
        | Cir.T_jump _ | Cir.T_branch _ ->
          raise (Irregular "loop body contains internal control flow")
        | Cir.T_return _ -> raise (Irregular "loop body returns")
    in
    walk [] loop.Cfg.header
  in
  let instrs =
    List.concat_map (fun b -> (Cir.block func b).Cir.instrs) ordered
    |> Array.of_list
  in
  let n = Array.length instrs in
  (* Intra-iteration edges (distance 0).  Anti- and output dependences are
     dropped: modulo scheduling assumes modulo variable expansion /
     rotating registers, which renames them away — keeping them would
     thread false cycles through register reuse (pipelining *requires*
     renaming, one of the resources Wall's study varies too). *)
  let g = Dep.of_instrs_renamed (Array.to_list instrs) in
  let edges = ref [] in
  List.iter
    (fun (e : Dep.edge) ->
      (* movs/casts are wires: zero latency lets copies chain freely *)
      let lat = latency.of_instr instrs.(e.Dep.src) in
      edges := { from_i = e.Dep.src; to_i = e.Dep.dst; latency = lat;
                 distance = 0 } :: !edges)
    g.Dep.edges;
  (* loop-carried register edges: upward-exposed use fed by a later def *)
  let first_def = Hashtbl.create 32 and last_def = Hashtbl.create 32 in
  for i = 0 to n - 1 do
    match Cir.def_of instrs.(i) with
    | Some r ->
      if not (Hashtbl.mem first_def r) then Hashtbl.replace first_def r i;
      Hashtbl.replace last_def r i
    | None -> ()
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun r ->
        let upward_exposed =
          match Hashtbl.find_opt first_def r with
          | Some d -> d >= i
          | None -> false
        in
        if upward_exposed then
          match Hashtbl.find_opt last_def r with
          | Some d ->
            edges :=
              { from_i = d; to_i = i;
                latency = latency.of_instr instrs.(d);
                distance = 1 }
              :: !edges
          | None -> ())
      (Cir.uses_of instrs.(i))
  done;
  (* loop-carried memory edges: a store in one iteration orders with every
     access of its region up to and including itself in the next.  The
     accesses are grouped per region as the body is walked, so the cost is
     the number of edges emitted, in the same order as a scan over every
     (store, access) pair. *)
  let accesses = Hashtbl.create 8 in (* region -> accesses so far, newest first *)
  for i = 0 to n - 1 do
    match Cir.memory_access instrs.(i) with
    | Some (region, dir) ->
      let seen =
        i :: Option.value (Hashtbl.find_opt accesses region) ~default:[]
      in
      Hashtbl.replace accesses region seen;
      if dir = `Write then begin
        let latency = max 1 (latency.of_instr instrs.(i)) in
        edges :=
          List.rev_append
            (List.rev_map
               (fun j -> { from_i = i; to_i = j; latency; distance = 1 })
               seen)
            !edges
      end
    | None -> ()
  done;
  { instrs; edges = !edges }

(* The constraint graph of a body for start-time problems: edges that
   run forward in body order at distance 0 (every intra-iteration edge,
   since Dep builds them from an earlier to a later instruction), sorted
   by source so one pass in that order settles every path made of them,
   and the rest (the loop-carried edges).  [rounds] bounds the rounds of
   {!start_times}: a simple path enters each target of a back edge at
   most once. *)
type constraints = {
  size : int;
  forward : dep_edge array;
  back : dep_edge array;
  rounds : int;
}

let constraints_of size edges =
  let is_forward e = e.distance = 0 && e.from_i < e.to_i in
  let forward = Array.of_list (List.filter is_forward edges) in
  Array.stable_sort (fun a b -> compare a.from_i b.from_i) forward;
  let back = List.filter (fun e -> not (is_forward e)) edges in
  let targets = List.sort_uniq compare (List.map (fun e -> e.to_i) back) in
  { size; forward; back = Array.of_list back; rounds = List.length targets + 1 }

(* The least start times sigma >= 0 with
   sigma(v) >= sigma(u) + latency - II*distance for every edge u->v, or
   None when a positive cycle means there are none.  One forward pass,
   then rounds of (back edges, forward pass) until nothing moves: round k
   settles every path with k back edges, so a graph without a positive
   cycle is settled within [rounds] rounds — the same least fixpoint as
   Bellman-Ford from zero, at O(rounds * edges) instead of
   O(size * edges). *)
let start_times c ~ii =
  let sigma = Array.make c.size 0 in
  let relax edges =
    Array.fold_left
      (fun changed e ->
        let bound = sigma.(e.from_i) + e.latency - (ii * e.distance) in
        if bound > sigma.(e.to_i) then begin
          sigma.(e.to_i) <- bound;
          true
        end
        else changed)
      false edges
  in
  ignore (relax c.forward);
  let rec settle round =
    let moved_back = relax c.back in
    let moved_forward = relax c.forward in
    if not (moved_back || moved_forward) then Some sigma
    else if round >= c.rounds then None
    else settle (round + 1)
  in
  settle 1

(* Strongly connected components of the dependence graph (Tarjan), as a
   component id per instruction. *)
let components n edges =
  let succs = Array.make n [] in
  List.iter (fun e -> succs.(e.from_i) <- e.to_i :: succs.(e.from_i)) edges;
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let stack = ref [] and next_index = ref 0 and next_comp = ref 0 in
  let rec visit v =
    index.(v) <- !next_index;
    low.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          visit w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      let rec pop () =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp.(w) <- !next_comp;
          if w <> v then pop ()
        | [] -> ()
      in
      pop ();
      incr next_comp
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then visit v
  done;
  (comp, !next_comp)

(** Recurrence-constrained minimum II (smallest II that satisfies all
    dependence cycles).  Every cycle lies inside one strongly connected
    component and crosses a loop-carried edge, so only components with an
    internal distance >= 1 edge are checked, each on its own edges.  A
    cycle's weight only falls as II grows, so feasibility is monotone and
    each component's bound is found by binary search between the bound so
    far and the sum of its nodes' largest out-latencies, where every
    simple cycle is feasible. *)
let rec_mii body =
  let n = Array.length body.instrs in
  let comp, ncomps = components n body.edges in
  (* renumber each component's nodes 0.. in body order, so its forward
     edges still run forward *)
  let size = Array.make ncomps 0 and local = Array.make n 0 in
  for v = 0 to n - 1 do
    local.(v) <- size.(comp.(v));
    size.(comp.(v)) <- size.(comp.(v)) + 1
  done;
  let internal = Array.make ncomps [] in
  List.iter
    (fun e ->
      let c = comp.(e.from_i) in
      if c = comp.(e.to_i) then
        internal.(c) <-
          { e with from_i = local.(e.from_i); to_i = local.(e.to_i) }
          :: internal.(c))
    body.edges;
  let best = ref 1 in
  Array.iteri
    (fun c edges ->
      if List.exists (fun e -> e.distance >= 1) edges then begin
        let cons = constraints_of size.(c) edges in
        let feasible ii = Option.is_some (start_times cons ~ii) in
        if not (feasible !best) then begin
          let out_latency = Array.make size.(c) 0 in
          List.iter
            (fun e ->
              out_latency.(e.from_i) <- max out_latency.(e.from_i) e.latency)
            edges;
          let rec search lo hi =
            if lo >= hi then lo
            else
              let mid = lo + ((hi - lo) / 2) in
              if feasible mid then search lo mid else search (mid + 1) hi
          in
          best :=
            search (!best + 1)
              (max (!best + 1) (Array.fold_left ( + ) 0 out_latency))
        end
      end)
    internal;
  !best

(** Resource-constrained minimum II for a resource allocation. *)
let res_mii (resources : Schedule.resources) body =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun instr ->
      let key, cap = Schedule.resource_of resources instr in
      let count = Option.value (Hashtbl.find_opt counts key) ~default:(0, cap) in
      Hashtbl.replace counts key (fst count + 1, cap))
    body.instrs;
  let ceil_div a b = (a + b - 1) / b in
  Hashtbl.fold
    (fun _ (count, cap) acc ->
      if cap = max_int then acc else max acc (ceil_div count cap))
    counts 1

type result = {
  ii : int; (* achieved initiation interval *)
  rec_mii : int;
  res_mii : int;
  sequential_cycles : int; (* one iteration without pipelining *)
  schedule_length : int; (* depth of one iteration's schedule *)
  speedup : float; (* asymptotic: sequential_cycles / ii *)
  fallback : bool; (* II search diverged; this is the list schedule *)
}

(* II values above this are not pipelining in any useful sense: the
   search raises II one step per failed placement, and a loop whose
   minimum II is past the limit (e.g. thousands of loads through one
   memory port) is not tried at all.  Such a loop falls back to the
   sequential list schedule instead. *)
let ii_search_limit = 4096

(* How many loops fell back; lib/sched can't see Obs.Metrics, so the
   driver layers (bench E2, chlsc analyze) export this counter as the
   sched.modulo.fallbacks metric. *)
let fallbacks = Atomic.make 0
let fallback_count () = Atomic.get fallbacks

(** Iterative modulo scheduling: place operations at the smallest start
    times satisfying dependences, wrapping resource use modulo II; raise II
    on failure. *)
let modulo_schedule ?(resources = Schedule.default_allocation)
    ?(latency = default_latency) ?(ii_limit = ii_search_limit)
    (func : Cir.func) : result =
  let body = extract_loop func latency in
  let n = Array.length body.instrs in
  let rmii = rec_mii body in
  let smii = res_mii resources body in
  let preds = Array.make n [] in
  List.iter
    (fun e -> preds.(e.to_i) <- e :: preds.(e.to_i))
    body.edges;
  let cons = constraints_of n body.edges in
  let resource = Array.map (Schedule.resource_of resources) body.instrs in
  let try_ii ii =
    (* ASAP start times satisfying sigma(v) >= sigma(u)+lat-II*dist,
       then greedy modulo resource assignment scanning slots. *)
    match start_times cons ~ii with
    | None -> None (* positive cycle: II too small *)
    | Some sigma ->
      (* resource table: per bounded resource, its use in each modulo slot *)
      let tables = Hashtbl.create 8 in
      let table key =
        match Hashtbl.find_opt tables key with
        | Some t -> t
        | None ->
          let t = Array.make ii 0 in
          Hashtbl.add tables key t;
          t
      in
      let ok = ref true in
      let order =
        List.sort
          (fun a b -> compare sigma.(a) sigma.(b))
          (List.init n Fun.id)
      in
      let final = Array.make n 0 in
      let placed = Array.make n false in
      List.iter
        (fun i ->
          (* earliest start given already-placed predecessors *)
          let earliest =
            List.fold_left
              (fun acc e ->
                if placed.(e.from_i) then
                  max acc (final.(e.from_i) + e.latency - (ii * e.distance))
                else acc)
              sigma.(i) preds.(i)
          in
          let key, cap = resource.(i) in
          let use = if cap = max_int then None else Some (table key) in
          let rec place t tries =
            if tries > ii then ok := false
            else begin
              let slot = ((t mod ii) + ii) mod ii in
              let free =
                match use with Some used -> used.(slot) < cap | None -> true
              in
              if free then begin
                final.(i) <- t;
                placed.(i) <- true;
                Option.iter (fun used -> used.(slot) <- used.(slot) + 1) use
              end
              else place (t + 1) (tries + 1)
            end
          in
          place earliest 0)
        order;
      if !ok then Some final else None
  in
  let rec search ii =
    if ii > ii_limit then None
    else
      match try_ii ii with
      | Some final -> Some (ii, final)
      | None -> search (ii + 1)
  in
  let start_ii = max rmii smii in
  (* sequential baseline: list schedule of one iteration, no chaining *)
  let seq_scheduled =
    (* with ILP inside the iteration but no overlap across iterations *)
    let sched =
      Schedule.list_schedule func
        { resources with Schedule.chain_budget = 0.1 }
        (Array.to_list body.instrs)
    in
    max sched.Schedule.num_steps 1
  in
  match search start_ii with
  | Some (ii, final) ->
    let schedule_length =
      Array.fold_left
        (fun acc i -> max acc i)
        0
        (Array.mapi (fun i t -> t + latency.of_instr body.instrs.(i)) final)
    in
    { ii;
      rec_mii = rmii;
      res_mii = smii;
      sequential_cycles = seq_scheduled;
      schedule_length;
      speedup = float_of_int seq_scheduled /. float_of_int ii;
      fallback = false }
  | None ->
    (* II diverged (this used to be a [failwith]): fall back to the
       unpipelined list schedule — initiating one iteration per
       sequential latency is always legal, just a 1.0x speedup *)
    Atomic.incr fallbacks;
    { ii = seq_scheduled;
      rec_mii = rmii;
      res_mii = smii;
      sequential_cycles = seq_scheduled;
      schedule_length = seq_scheduled;
      speedup = 1.0;
      fallback = true }
