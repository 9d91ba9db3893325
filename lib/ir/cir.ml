(* CIR: the sequential three-address intermediate representation.

   A CIR function is a control-flow graph of basic blocks over virtual
   registers (each with a bit width) and memory regions (each array gets
   its own region — the partitioned-memory model the scheduled backends
   use).  Function calls have already been inlined by lowering; channels
   and par are handled outside CIR (see back/handelc.ml), so CIR is purely
   sequential.  Operator vocabulary is shared with the netlist layer. *)

type reg = int

type operand = O_reg of reg | O_imm of Bitvec.t

type instr =
  | I_bin of { op : Netlist.binop; dst : reg; a : operand; b : operand }
  | I_un of { op : Netlist.unop; dst : reg; a : operand }
  | I_mov of { dst : reg; src : operand }
  | I_cast of { dst : reg; signed : bool; src : operand }
    (* resize [src] (signedness of the source) to the width of [dst] *)
  | I_mux of { dst : reg; sel : operand; if_true : operand; if_false : operand }
  | I_load of { dst : reg; region : int; addr : operand }
  | I_store of { region : int; addr : operand; value : operand }

type terminator =
  | T_jump of int
  | T_branch of { cond : operand; if_true : int; if_false : int }
  | T_return of operand option

type block = {
  b_id : int;
  mutable instrs : instr list;
  mutable term : terminator;
}

type region = {
  rg_name : string;
  rg_words : int;
  rg_width : int;
  rg_init : Bitvec.t array option;
}

type func = {
  fn_name : string;
  fn_params : (string * reg) list;
  fn_ret_width : int; (* 0 for void *)
  mutable fn_blocks : block array;
  fn_entry : int;
  mutable fn_reg_widths : int array;
  mutable fn_reg_count : int;
  fn_regions : region array;
  (* Scalar globals promoted to registers: name, register, initial value.
     They are architectural state: initialized before entry and observable
     after return. *)
  fn_globals : (string * reg * Bitvec.t) list;
}

let reg_width fn r = fn.fn_reg_widths.(r)
let num_blocks fn = Array.length fn.fn_blocks
let block fn id = fn.fn_blocks.(id)

let operand_width fn = function
  | O_reg r -> reg_width fn r
  | O_imm bv -> Bitvec.width bv

(** Destination register of an instruction, if any. *)
let def_of = function
  | I_bin { dst; _ } | I_un { dst; _ } | I_mov { dst; _ } | I_cast { dst; _ }
  | I_mux { dst; _ } | I_load { dst; _ } -> Some dst
  | I_store _ -> None

(** Apply [f] to each register read by an instruction, in operand order,
    without building a list. *)
let iter_uses f instr =
  let operand = function O_reg r -> f r | O_imm _ -> () in
  match instr with
  | I_bin { a; b; _ } -> operand a; operand b
  | I_un { a; _ } -> operand a
  | I_mov { src; _ } | I_cast { src; _ } -> operand src
  | I_mux { sel; if_true; if_false; _ } ->
    operand sel; operand if_true; operand if_false
  | I_load { addr; _ } -> operand addr
  | I_store { addr; value; _ } -> operand addr; operand value

let reg_of_operand = function O_reg r -> [ r ] | O_imm _ -> []

(** Registers read by an instruction, in [iter_uses] order. *)
let uses_of = function
  | I_bin { a; b; _ } -> reg_of_operand a @ reg_of_operand b
  | I_un { a; _ } -> reg_of_operand a
  | I_mov { src; _ } -> reg_of_operand src
  | I_cast { src; _ } -> reg_of_operand src
  | I_mux { sel; if_true; if_false; _ } ->
    reg_of_operand sel @ reg_of_operand if_true @ reg_of_operand if_false
  | I_load { addr; _ } -> reg_of_operand addr
  | I_store { addr; value; _ } -> reg_of_operand addr @ reg_of_operand value

let uses_of_terminator = function
  | T_jump _ -> []
  | T_branch { cond; _ } -> reg_of_operand cond
  | T_return None -> []
  | T_return (Some op) -> reg_of_operand op

(** Memory region touched, with access direction. *)
let memory_access = function
  | I_load { region; _ } -> Some (region, `Read)
  | I_store { region; _ } -> Some (region, `Write)
  | I_bin _ | I_un _ | I_mov _ | I_cast _ | I_mux _ -> None

let successors blk =
  match blk.term with
  | T_jump l -> [ l ]
  | T_branch { if_true; if_false; _ } ->
    if if_true = if_false then [ if_true ] else [ if_true; if_false ]
  | T_return _ -> []

(* --- printing --- *)

let string_of_operand = function
  | O_reg r -> Printf.sprintf "r%d" r
  | O_imm bv -> Bitvec.to_string bv

let string_of_instr = function
  | I_bin { op; dst; a; b } ->
    Printf.sprintf "r%d = %s %s %s" dst (string_of_operand a)
      (Netlist.string_of_binop op) (string_of_operand b)
  | I_un { op; dst; a } ->
    Printf.sprintf "r%d = %s%s" dst (Netlist.string_of_unop op)
      (string_of_operand a)
  | I_mov { dst; src } -> Printf.sprintf "r%d = %s" dst (string_of_operand src)
  | I_cast { dst; signed; src } ->
    Printf.sprintf "r%d = %s %s" dst
      (if signed then "sext/trunc" else "zext/trunc")
      (string_of_operand src)
  | I_mux { dst; sel; if_true; if_false } ->
    Printf.sprintf "r%d = %s ? %s : %s" dst (string_of_operand sel)
      (string_of_operand if_true) (string_of_operand if_false)
  | I_load { dst; region; addr } ->
    Printf.sprintf "r%d = load m%d[%s]" dst region (string_of_operand addr)
  | I_store { region; addr; value } ->
    Printf.sprintf "store m%d[%s] = %s" region (string_of_operand addr)
      (string_of_operand value)

let string_of_terminator = function
  | T_jump l -> Printf.sprintf "jump B%d" l
  | T_branch { cond; if_true; if_false } ->
    Printf.sprintf "branch %s ? B%d : B%d" (string_of_operand cond) if_true
      if_false
  | T_return None -> "return"
  | T_return (Some op) -> Printf.sprintf "return %s" (string_of_operand op)

let to_string fn =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "func %s(%s)\n" fn.fn_name
    (String.concat ", "
       (List.map (fun (n, r) -> Printf.sprintf "%s=r%d" n r) fn.fn_params));
  Array.iteri
    (fun i (rg : region) ->
      Printf.bprintf buf "  region m%d %s[%d] (%d bits)\n" i rg.rg_name
        rg.rg_words rg.rg_width)
    fn.fn_regions;
  Array.iter
    (fun blk ->
      Printf.bprintf buf "B%d:\n" blk.b_id;
      List.iter
        (fun ins -> Printf.bprintf buf "  %s\n" (string_of_instr ins))
        blk.instrs;
      Printf.bprintf buf "  %s\n" (string_of_terminator blk.term))
    fn.fn_blocks;
  Buffer.contents buf

(* --- statistics used by experiments --- *)

let num_instrs fn =
  Array.fold_left
    (fun acc blk -> acc + List.length blk.instrs)
    0 fn.fn_blocks
