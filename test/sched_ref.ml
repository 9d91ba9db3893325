(* Test-only reference schedulers: the quadratic list scheduler and the
   linear-scan modulo scheduler as they were before the ready-list and
   SCC rewrites.  The differential tests in test_sched.ml hold the
   production schedulers to bit-identical output against these. *)

open Schedule

(** Resource-constrained list scheduling with chaining of [instrs] (one
    basic block).  Priority is longest path to a sink. *)
let list_schedule (func : Cir.func) (resources : Schedule.resources)
    (instrs : Cir.instr list) : Schedule.schedule =
  let g = Dep.of_instrs instrs in
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
    let steps = Array.make n (-1) in
    let arrival = Array.make n 0. in (* completion time within its step *)
    let scheduled = ref 0 in
    let step = ref 0 in
    let step_delays = ref [] in
    while !scheduled < n do
      (* per-step usage *)
      let usage = Hashtbl.create 8 in
      let used cls =
        match Hashtbl.find_opt usage cls with Some k -> k | None -> 0
      in
      let mem_usage = Hashtbl.create 8 in (* (region, dir) -> count *)
      let mem_used key =
        match Hashtbl.find_opt mem_usage key with Some k -> k | None -> 0
      in
      let placed_this_step = ref true in
      while !placed_this_step do
        placed_this_step := false;
        (* candidates in priority order *)
        let candidates =
          List.init n Fun.id
          |> List.filter (fun i ->
                 steps.(i) = -1
                 && List.for_all
                      (fun (p, kind) ->
                        steps.(p) <> -1
                        &&
                        match kind with
                        | Dep.Raw -> steps.(p) <= !step
                        | Dep.War | Dep.Waw -> steps.(p) <= !step
                        | Dep.Mem ->
                          (* store->load needs a step boundary unless the
                             memory forwards; other mem edges only order *)
                          let store_to_load =
                            (match Cir.memory_access g.Dep.instrs.(p) with
                            | Some (_, `Write) -> true
                            | Some (_, `Read) | None -> false)
                            &&
                            match Cir.memory_access g.Dep.instrs.(i) with
                            | Some (_, `Read) -> true
                            | Some (_, `Write) | None -> false
                          in
                          if store_to_load && not resources.mem_forwarding
                          then steps.(p) < !step
                          else steps.(p) <= !step)
                      g.Dep.preds.(i))
          |> List.sort (fun a b -> compare height.(b) height.(a))
        in
        List.iter
          (fun i ->
            if steps.(i) = -1 then begin
              let instr = g.Dep.instrs.(i) in
              let cls = class_of_instr instr in
              (* earliest start within this step given chained RAW deps *)
              let ready_time =
                List.fold_left
                  (fun acc (p, kind) ->
                    match kind with
                    | Dep.Raw when steps.(p) = !step ->
                      Float.max acc arrival.(p)
                    | Dep.Raw | Dep.War | Dep.Waw | Dep.Mem -> acc)
                  0. g.Dep.preds.(i)
              in
              let finish = ready_time +. instr_delay func instr in
              let fits_chain = finish <= resources.chain_budget in
              let fits_resource = used cls < capacity resources cls in
              let fits_mem =
                match Cir.memory_access instr with
                | Some (region, `Read) ->
                  mem_used (region, `Read) < max 1 resources.mem_read_ports
                | Some (region, `Write) ->
                  mem_used (region, `Write) < max 1 resources.mem_write_ports
                | None -> true
              in
              (* an op too slow for any budget still gets a step alone *)
              let oversized = instr_delay func instr > resources.chain_budget in
              let chain_ok = fits_chain || (oversized && ready_time = 0.) in
              if chain_ok && fits_resource && fits_mem then begin
                steps.(i) <- !step;
                arrival.(i) <- finish;
                Hashtbl.replace usage cls (used cls + 1);
                (match Cir.memory_access instr with
                | Some (region, dir) ->
                  Hashtbl.replace mem_usage (region, dir)
                    (mem_used (region, dir) + 1)
                | None -> ());
                incr scheduled;
                placed_this_step := true
              end
            end)
          candidates
      done;
      let max_arrival =
        Array.to_list arrival
        |> List.mapi (fun i a -> if steps.(i) = !step then a else 0.)
        |> List.fold_left Float.max 0.
      in
      step_delays := max_arrival :: !step_delays;
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


open Pipeline

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
  (* loop-carried memory edges: store in one iteration orders with accesses
     of the same region in the next *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      match (Cir.memory_access instrs.(i), Cir.memory_access instrs.(j)) with
      | Some (ri, `Write), Some (rj, _) when ri = rj && j <= i ->
        edges :=
          { from_i = i; to_i = j; latency = max 1 (latency.of_instr instrs.(i));
            distance = 1 }
          :: !edges
      | _ -> ()
    done
  done;
  { instrs; edges = !edges }

(* Can every instruction be assigned a start time sigma with
   sigma(v) >= sigma(u) + latency - II*distance for every edge u->v?
   Standard longest-path feasibility (Bellman-Ford over the constraint
   graph); infeasible iff a positive cycle exists. *)
let feasible body ~ii =
  let n = Array.length body.instrs in
  if n = 0 then true
  else begin
    let dist = Array.make n 0 in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n + 1 do
      changed := false;
      incr rounds;
      List.iter
        (fun e ->
          let bound = dist.(e.from_i) + e.latency - (ii * e.distance) in
          if bound > dist.(e.to_i) then begin
            dist.(e.to_i) <- bound;
            changed := true
          end)
        body.edges
    done;
    not !changed
  end

(** Recurrence-constrained minimum II (smallest II that satisfies all
    dependence cycles). *)
let rec_mii body =
  let rec search ii = if feasible body ~ii then ii else search (ii + 1) in
  search 1

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
  let try_ii ii =
    (* ASAP start times satisfying sigma(v) >= sigma(u)+lat-II*dist,
       then greedy modulo resource assignment scanning slots. *)
    let sigma = Array.make n 0 in
    let changed = ref true in
    let rounds = ref 0 in
    while !changed && !rounds <= n + 2 do
      changed := false;
      incr rounds;
      List.iter
        (fun e ->
          let bound = sigma.(e.from_i) + e.latency - (ii * e.distance) in
          if bound > sigma.(e.to_i) then begin
            sigma.(e.to_i) <- bound;
            changed := true
          end)
        body.edges
    done;
    if !changed then None (* positive cycle: II too small *)
    else begin
      (* resource table: class/mem usage per modulo slot *)
      let usage = Hashtbl.create 16 in
      let get key = Option.value (Hashtbl.find_opt usage key) ~default:0 in
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
          let instr = body.instrs.(i) in
          let cls = Schedule.class_of_instr instr in
          let cap = Schedule.capacity resources cls in
          let mem = Cir.memory_access instr in
          let mem_cap =
            match mem with
            | Some (_, `Read) -> max 1 resources.mem_read_ports
            | Some (_, `Write) -> max 1 resources.mem_write_ports
            | None -> max_int
          in
          (* earliest start given already-placed predecessors *)
          let earliest =
            List.fold_left
              (fun acc e ->
                if placed.(e.from_i) then
                  max acc (final.(e.from_i) + e.latency - (ii * e.distance))
                else acc)
              sigma.(i) preds.(i)
          in
          let rec place t tries =
            if tries > ii then ok := false
            else begin
              let slot = ((t mod ii) + ii) mod ii in
              let class_ok = cap = max_int || get (`C (cls, slot)) < cap in
              let mem_ok =
                match mem with
                | None -> true
                | Some (region, dir) ->
                  get (`M (region, dir, slot)) < mem_cap
              in
              if class_ok && mem_ok then begin
                final.(i) <- t;
                placed.(i) <- true;
                if cap <> max_int then
                  Hashtbl.replace usage (`C (cls, slot)) (get (`C (cls, slot)) + 1);
                (match mem with
                | Some (region, dir) ->
                  Hashtbl.replace usage
                    (`M (region, dir, slot))
                    (get (`M (region, dir, slot)) + 1)
                | None -> ())
              end
              else place (t + 1) (tries + 1)
            end
          in
          place earliest 0)
        order;
      if !ok then Some final else None
    end
  in
  let rec search ii =
    if ii > ii_limit then None
    else
      match try_ii ii with
      | Some final -> Some (ii, final)
      | None -> search (ii + 1)
  in
  let start_ii = max rmii smii in
  let seq_scheduled =
    (* with ILP inside the iteration but no overlap across iterations *)
    let sched =
      list_schedule func
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
    { ii = seq_scheduled;
      rec_mii = rmii;
      res_mii = smii;
      sequential_cycles = seq_scheduled;
      schedule_length = seq_scheduled;
      speedup = 1.0;
      fallback = true }
