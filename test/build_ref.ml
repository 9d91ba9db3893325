(* Test-only reference builders: the dependence graph with hash-table
   indexes and the FSMD builder that filters a block's instructions once
   per state, as they were before the array and per-step-bucket
   rewrites.  The differential tests in test_sched.ml hold Dep.of_instrs,
   Dep.of_instrs_renamed and Fsmd.of_func to identical output against
   these. *)

open Dep

(** Build the dependence DAG of an instruction sequence. *)
let dep_of_instrs (instrs : Cir.instr list) : graph =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let edges = ref [] in
  let add src dst kind = if src <> dst then edges := { src; dst; kind } :: !edges in
  let last_def = Hashtbl.create 32 in (* reg -> node *)
  let readers_since_def = Hashtbl.create 32 in (* reg -> node list *)
  let last_store = Hashtbl.create 8 in (* region -> node *)
  let loads_since_store = Hashtbl.create 8 in (* region -> node list *)
  for i = 0 to n - 1 do
    let instr = arr.(i) in
    (* true dependences *)
    List.iter
      (fun r ->
        match Hashtbl.find_opt last_def r with
        | Some d -> add d i Raw
        | None -> ())
      (Cir.uses_of instr);
    (* memory dependences *)
    (match Cir.memory_access instr with
    | Some (region, `Read) ->
      (match Hashtbl.find_opt last_store region with
      | Some s -> add s i Mem
      | None -> ());
      let l =
        match Hashtbl.find_opt loads_since_store region with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace loads_since_store region (i :: l)
    | Some (region, `Write) ->
      (match Hashtbl.find_opt last_store region with
      | Some s -> add s i Mem
      | None -> ());
      List.iter
        (fun l -> add l i Mem)
        (match Hashtbl.find_opt loads_since_store region with
        | Some l -> l
        | None -> []);
      Hashtbl.replace last_store region i;
      Hashtbl.replace loads_since_store region []
    | None -> ());
    (* output and anti dependences *)
    (match Cir.def_of instr with
    | Some d ->
      (match Hashtbl.find_opt last_def d with
      | Some prev -> add prev i Waw
      | None -> ());
      List.iter
        (fun r -> add r i War)
        (match Hashtbl.find_opt readers_since_def d with
        | Some l -> l
        | None -> []);
      Hashtbl.replace last_def d i;
      Hashtbl.replace readers_since_def d []
    | None -> ());
    List.iter
      (fun r ->
        let l =
          match Hashtbl.find_opt readers_since_def r with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace readers_since_def r (i :: l))
      (Cir.uses_of instr)
  done;
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun e ->
      preds.(e.dst) <- (e.src, e.kind) :: preds.(e.dst);
      succs.(e.src) <- (e.dst, e.kind) :: succs.(e.src))
    !edges;
  { instrs = arr; edges = !edges; preds; succs }

(** True-dependence-only variant, as if registers were infinitely renamed
    (Wall's "perfect renaming" model). *)
let dep_of_instrs_renamed (instrs : Cir.instr list) : graph =
  let g = dep_of_instrs instrs in
  let edges = List.filter (fun e -> e.kind = Raw || e.kind = Mem) g.edges in
  let n = Array.length g.instrs in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun e ->
      preds.(e.dst) <- (e.src, e.kind) :: preds.(e.dst);
      succs.(e.src) <- (e.dst, e.kind) :: succs.(e.src))
    edges;
  { instrs = g.instrs; edges; preds; succs }

open Fsmd

(** Build an FSMD from a CIR function given a per-block scheduler. *)
let fsmd_of_func ?(mem_forwarding = false) (func : Cir.func)
    ~(schedule_block : Cir.block -> Schedule.schedule) : t =
  let nblocks = Cir.num_blocks func in
  let schedules =
    Array.init nblocks (fun b -> schedule_block (Cir.block func b))
  in
  (* allocate contiguous state ids per block *)
  let first_state = Array.make nblocks 0 in
  let total = ref 0 in
  for b = 0 to nblocks - 1 do
    first_state.(b) <- !total;
    total := !total + max 1 schedules.(b).Schedule.num_steps
  done;
  let states = ref [] in
  for b = 0 to nblocks - 1 do
    let blk = Cir.block func b in
    let sched = schedules.(b) in
    let nsteps = max 1 sched.Schedule.num_steps in
    let instrs = Array.of_list blk.Cir.instrs in
    for step = 0 to nsteps - 1 do
      let actions =
        Array.to_list instrs
        |> List.filteri (fun i _ ->
               i < Array.length sched.Schedule.steps
               && sched.Schedule.steps.(i) = step)
      in
      let is_last = step = nsteps - 1 in
      let next =
        if not is_last then N_goto (first_state.(b) + step + 1)
        else
          match blk.Cir.term with
          | Cir.T_jump target -> N_goto first_state.(target)
          | Cir.T_branch { cond; if_true; if_false } ->
            N_branch
              { cond;
                if_true = first_state.(if_true);
                if_false = first_state.(if_false) }
          | Cir.T_return v -> N_halt v
      in
      let delay =
        if step < Array.length sched.Schedule.step_delay then
          sched.Schedule.step_delay.(step)
        else 0.
      in
      states :=
        { st_id = first_state.(b) + step; actions; next; delay } :: !states
    done
  done;
  let states =
    Array.of_list (List.sort (fun a b -> compare a.st_id b.st_id) (List.rev !states))
  in
  { fd_name = func.Cir.fn_name;
    func;
    states;
    entry = first_state.(func.Cir.fn_entry);
    mem_forwarding }
