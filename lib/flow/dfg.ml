(* Asynchronous dataflow circuits in the style of CASH's Pegasus IR
   [Budiu & Goldstein, FPL 2002].

   The paper: "Budiu et al.'s CASH is unique because it generates
   asynchronous hardware.  It identifies instruction-level parallelism in
   ANSI C and generates asynchronous dataflow circuits."

   CASH's Pegasus representation maps SSA directly onto hardware: each SSA
   definition is an operator node; phi nodes at join points become merge
   (mu) nodes; values leaving a conditional region pass through steer
   (eta) nodes gated by the branch predicate; loop back edges circulate
   tokens through mu nodes.  We build exactly that structure from our SSA
   form — the node inventory and its area estimate are the static view of
   the circuit; the timed token simulation lives in asim.ml. *)

type node_kind =
  | N_op of string (* operator mnemonic *)
  | N_const
  | N_param of string
  | N_merge (* mu: phi at a join/loop header *)
  | N_steer (* eta: value gated by a predicate (branch successor) *)
  | N_load of string
  | N_store of string
  | N_return

type node = {
  id : int;
  kind : node_kind;
  width : int;
  inputs : int list; (* producer node ids *)
}

type t = {
  nodes : node array;
  ssa : Ssa.t;
}

(** Build the Pegasus-style circuit from an SSA function. *)
let of_ssa (ssa : Ssa.t) : t =
  let func = ssa.Ssa.func in
  let nodes = ref [] in
  let next_id = ref 0 in
  let reg_node = Hashtbl.create 64 in (* ssa reg -> node id *)
  let fresh kind width inputs =
    let id = !next_id in
    incr next_id;
    nodes := { id; kind; width; inputs } :: !nodes;
    id
  in
  let node_of_reg r =
    match Hashtbl.find_opt reg_node r with
    | Some id -> id
    | None ->
      (* parameter / global / use-before-def: a source node *)
      let id =
        fresh (N_param (Printf.sprintf "r%d" r)) (Cir.reg_width func r) []
      in
      Hashtbl.replace reg_node r id;
      id
  in
  let node_of_operand = function
    | Cir.O_imm bv -> fresh N_const (Bitvec.width bv) []
    | Cir.O_reg r -> node_of_reg r
  in
  (* pre-seed parameters *)
  List.iter
    (fun (name, r) ->
      Hashtbl.replace reg_node r (fresh (N_param name) (Cir.reg_width func r) []))
    func.Cir.fn_params;
  (* each block contributes: merge nodes for its phis, operator nodes for
     its instructions, steer nodes for the branch *)
  let branch_pred = Hashtbl.create 8 in (* block -> predicate node *)
  Array.iteri
    (fun b blk ->
      List.iter
        (fun (phi : Ssa.phi) ->
          let inputs =
            List.map (fun (_, op) -> node_of_operand op) phi.Ssa.p_srcs
          in
          Hashtbl.replace reg_node phi.Ssa.p_dst
            (fresh N_merge phi.Ssa.p_width inputs))
        ssa.Ssa.phis.(b);
      List.iter
        (fun instr ->
          let mk kind dst inputs =
            Hashtbl.replace reg_node dst
              (fresh kind (Cir.reg_width func dst) inputs)
          in
          match instr with
          | Cir.I_bin { op; dst; a; b } ->
            mk (N_op (Netlist.string_of_binop op)) dst
              [ node_of_operand a; node_of_operand b ]
          | Cir.I_un { op; dst; a } ->
            mk (N_op (Netlist.string_of_unop op)) dst [ node_of_operand a ]
          | Cir.I_mov { dst; src } -> mk (N_op "mov") dst [ node_of_operand src ]
          | Cir.I_cast { dst; src; _ } ->
            mk (N_op "cast") dst [ node_of_operand src ]
          | Cir.I_mux { dst; sel; if_true; if_false } ->
            mk (N_op "mux") dst
              [ node_of_operand sel; node_of_operand if_true;
                node_of_operand if_false ]
          | Cir.I_load { dst; region; addr } ->
            mk (N_load func.Cir.fn_regions.(region).Cir.rg_name) dst
              [ node_of_operand addr ]
          | Cir.I_store { region; addr; value } ->
            ignore
              (fresh (N_store func.Cir.fn_regions.(region).Cir.rg_name) 1
                 [ node_of_operand addr; node_of_operand value ]))
        blk.Cir.instrs;
      match blk.Cir.term with
      | Cir.T_branch { cond; if_true; if_false } ->
        let pred = node_of_operand cond in
        Hashtbl.replace branch_pred b pred;
        (* steer nodes gate live values into both successors; statically we
           count one steer pair per branch (per-value steers are elided to
           keep the static inventory readable) *)
        ignore (fresh N_steer 1 [ pred ]);
        ignore if_true;
        ignore if_false
      | Cir.T_return (Some op) ->
        ignore (fresh N_return (Cir.operand_width func op) [ node_of_operand op ])
      | Cir.T_return None | Cir.T_jump _ -> ())
    func.Cir.fn_blocks;
  { nodes =
      Arrays.of_rev_list
        ~fill:{ id = -1; kind = N_const; width = 0; inputs = [] }
        !nodes;
    ssa }

type stats = {
  operators : int;
  merges : int;
  steers : int;
  memory_ops : int;
  constants : int;
  total : int;
}

let stats t =
  let count pred = Array.to_list t.nodes |> List.filter pred |> List.length in
  { operators =
      count (fun n -> match n.kind with N_op _ -> true | _ -> false);
    merges = count (fun n -> n.kind = N_merge);
    steers = count (fun n -> n.kind = N_steer);
    memory_ops =
      count (fun n ->
          match n.kind with N_load _ | N_store _ -> true | _ -> false);
    constants = count (fun n -> n.kind = N_const);
    total = Array.length t.nodes }

(* Asynchronous circuits pay handshake logic per node: estimate area as the
   synchronous operator cost plus a per-node handshake adder. *)
let handshake_area_per_node = 12.

let area t =
  Array.fold_left
    (fun acc node ->
      let fw = float_of_int (max 1 node.width) in
      let op_area =
        match node.kind with
        | N_op "*" -> 6. *. fw *. fw
        | N_op ("/" | "u/" | "%" | "u%") -> 10. *. fw *. fw
        | N_op ("+" | "-" | "<" | "<=" | "u<" | "u<=") -> 7. *. fw
        | N_op ("<<" | ">>" | ">>>") -> 3. *. fw *. Area.flog2 (max 2 node.width)
        | N_op _ -> fw
        | N_merge | N_steer -> 3. *. fw
        | N_load _ | N_store _ -> 2. *. fw
        | N_const | N_param _ | N_return -> 0.
      in
      acc +. op_area +. handshake_area_per_node)
    0. t.nodes
