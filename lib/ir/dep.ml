(* Data-dependence graphs over straight-line CIR instruction sequences.

   Used by the list scheduler (intra-block dependences bound how many
   operations can issue together), the ILP-limit study (dependences over a
   dynamic trace) and the modulo scheduler (loop-carried dependences).

   Edge kinds follow the classic taxonomy: RAW (true), WAR (anti), WAW
   (output), plus memory ordering edges — a store to a region orders with
   every other access to the same region; loads may reorder freely with
   loads. *)

type kind = Raw | War | Waw | Mem

type edge = { src : int; dst : int; kind : kind }

type graph = {
  instrs : Cir.instr array;
  edges : edge list;
  preds : (int * kind) list array; (* per node: (pred, kind) *)
  succs : (int * kind) list array;
}

(* The graph over [instrs] with [edges]; each node's preds and succs
   list its edges in reverse [edges] order. *)
let with_edges instrs edges =
  let n = Array.length instrs in
  let preds = Array.make n [] and succs = Array.make n [] in
  List.iter
    (fun e ->
      preds.(e.dst) <- (e.src, e.kind) :: preds.(e.dst);
      succs.(e.src) <- (e.dst, e.kind) :: succs.(e.src))
    edges;
  { instrs; edges; preds; succs }

(** Build the dependence DAG of an instruction sequence.

    One forward pass; the last def, readers since that def, last store and
    loads since that store are arrays indexed by register and by region,
    sized by the largest ids the block mentions.  O(n + e) plus those
    sizes. *)
let of_instrs (instrs : Cir.instr list) : graph =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let nregs = ref 0 and nregions = ref 0 in
  let see_reg r = if r >= !nregs then nregs := r + 1 in
  Array.iter
    (fun instr ->
      Cir.iter_uses see_reg instr;
      Option.iter see_reg (Cir.def_of instr);
      match instr with
      | Cir.I_load { region; _ } | Cir.I_store { region; _ } ->
        if region >= !nregions then nregions := region + 1
      | Cir.I_bin _ | Cir.I_un _ | Cir.I_mov _ | Cir.I_cast _ | Cir.I_mux _ ->
        ())
    arr;
  let edges = ref [] in
  let add src dst kind = if src <> dst then edges := { src; dst; kind } :: !edges in
  let last_def = Array.make !nregs (-1) in
  let readers_since_def = Array.make !nregs [] in
  let last_store = Array.make !nregions (-1) in
  let loads_since_store = Array.make !nregions [] in
  let after_last_store region i =
    let s = last_store.(region) in
    if s >= 0 then add s i Mem
  in
  for i = 0 to n - 1 do
    let instr = arr.(i) in
    (* true dependences *)
    Cir.iter_uses
      (fun r ->
        let d = last_def.(r) in
        if d >= 0 then add d i Raw)
      instr;
    (* memory dependences *)
    (match instr with
    | Cir.I_load { region; _ } ->
      after_last_store region i;
      loads_since_store.(region) <- i :: loads_since_store.(region)
    | Cir.I_store { region; _ } ->
      after_last_store region i;
      List.iter (fun l -> add l i Mem) loads_since_store.(region);
      last_store.(region) <- i;
      loads_since_store.(region) <- []
    | Cir.I_bin _ | Cir.I_un _ | Cir.I_mov _ | Cir.I_cast _ | Cir.I_mux _ -> ());
    (* output and anti dependences *)
    (match Cir.def_of instr with
    | Some d ->
      let prev = last_def.(d) in
      if prev >= 0 then add prev i Waw;
      List.iter (fun r -> add r i War) readers_since_def.(d);
      last_def.(d) <- i;
      readers_since_def.(d) <- []
    | None -> ());
    Cir.iter_uses
      (fun r -> readers_since_def.(r) <- i :: readers_since_def.(r))
      instr
  done;
  with_edges arr !edges

(** Critical-path length in instruction counts (unit latency). *)
let critical_path g =
  let n = Array.length g.instrs in
  let depth = Array.make n 1 in
  for i = 0 to n - 1 do
    List.iter
      (fun (p, _) -> if depth.(p) + 1 > depth.(i) then depth.(i) <- depth.(p) + 1)
      g.preds.(i)
  done;
  Array.fold_left max 0 depth

(** True-dependence-only variant, as if registers were infinitely renamed
    (Wall's "perfect renaming" model). *)
let of_instrs_renamed (instrs : Cir.instr list) : graph =
  let g = of_instrs instrs in
  with_edges g.instrs
    (List.filter (fun e -> e.kind = Raw || e.kind = Mem) g.edges)
