(* Word-level synchronous netlists.

   A netlist is a graph of typed nodes (constants, inputs, operators, muxes,
   registers, memory ports) referenced by dense integer signal ids.  It is
   the common hardware substrate: Cones emits purely combinational netlists,
   the FSMD backends elaborate their controller+datapath into one, and the
   area model, Verilog emitter and evaluator all consume it. *)

type signal = int

type unop = U_not | U_neg | U_reduce_or

type binop =
  | B_add | B_sub | B_mul | B_udiv | B_urem | B_sdiv | B_srem
  | B_and | B_or | B_xor
  | B_shl | B_lshr | B_ashr
  | B_eq | B_ne | B_ult | B_ule | B_slt | B_sle

type node =
  | Const of Bitvec.t
  | Input of string
  | Unop of unop * signal
  | Binop of binop * signal * signal
  | Mux of { sel : signal; if_true : signal; if_false : signal }
  | Concat of { hi : signal; lo : signal }
  | Extract of { hi : int; lo : int; arg : signal }
  | Zext of { width : int; arg : signal }
  | Sext of { width : int; arg : signal }
  | Reg of { init : Bitvec.t; next : signal; enable : signal option }
  | Mem_read of { mem : int; addr : signal }

type mem = {
  mem_name : string;
  word_width : int;
  depth : int;
  (* Synchronous write port; at a clock edge, if [we]=1 the word at [waddr]
     becomes [wdata].  Reads (Mem_read nodes) are combinational. *)
  mutable write_port : (signal * signal * signal) option; (* we, waddr, wdata *)
  init : Bitvec.t array option;
}

type t = {
  mutable nodes : node array;
  mutable widths : int array;
  mutable count : int;
  mutable mems : mem list; (* reverse order of creation *)
  mutable outputs : (string * signal) list; (* reverse order *)
  mutable name : string;
}

(* Fills unused node slots: one long-lived value rather than a fresh
   [Const] per growth (see Arrays). *)
let placeholder = Const (Bitvec.zero 1)

let create ?(name = "top") () =
  { nodes = Array.make 64 placeholder;
    widths = Array.make 64 0;
    count = 0;
    mems = [];
    outputs = [];
    name }

let length t = t.count
let node t s = t.nodes.(s)
let width t s = t.widths.(s)
let name t = t.name

let ensure_capacity t =
  if t.count = Array.length t.nodes then begin
    let nodes = Array.make (2 * t.count) placeholder in
    let widths = Array.make (2 * t.count) 0 in
    Array.blit t.nodes 0 nodes 0 t.count;
    Array.blit t.widths 0 widths 0 t.count;
    t.nodes <- nodes;
    t.widths <- widths
  end

let add t ~width node =
  ensure_capacity t;
  let s = t.count in
  t.nodes.(s) <- node;
  t.widths.(s) <- width;
  t.count <- t.count + 1;
  s

let const t bv = add t ~width:(Bitvec.width bv) (Const bv)
let const_int t ~width n = const t (Bitvec.of_int ~width n)
let input t name ~width = add t ~width (Input name)

let unop t op a =
  let w = match op with U_reduce_or -> 1 | U_not | U_neg -> width t a in
  add t ~width:w (Unop (op, a))

let is_comparison = function
  | B_eq | B_ne | B_ult | B_ule | B_slt | B_sle -> true
  | B_add | B_sub | B_mul | B_udiv | B_urem | B_sdiv | B_srem | B_and | B_or
  | B_xor | B_shl | B_lshr | B_ashr -> false

let binop t op a b =
  let w = if is_comparison op then 1 else width t a in
  add t ~width:w (Binop (op, a, b))

let mux t ~sel ~if_true ~if_false =
  add t ~width:(width t if_true) (Mux { sel; if_true; if_false })

let concat t ~hi ~lo =
  add t ~width:(width t hi + width t lo) (Concat { hi; lo })

let extract t ~hi ~lo arg = add t ~width:(hi - lo + 1) (Extract { hi; lo; arg })
let zext t ~width:w arg = add t ~width:w (Zext { width = w; arg })
let sext t ~width:w arg = add t ~width:w (Sext { width = w; arg })

(** Resize a signal to [width] following C conversion rules. *)
let resize t ~signed ~width:w s =
  let cur = width t s in
  if cur = w then s
  else if w < cur then extract t ~hi:(w - 1) ~lo:0 s
  else if signed then sext t ~width:w s
  else zext t ~width:w s

(* Registers are created in two steps so feedback loops can be built:
   [reg_forward] allocates the register with a dummy next, [reg_connect]
   patches in the real next-state signal. *)
let reg_forward t ~init =
  add t ~width:(Bitvec.width init) (Reg { init; next = -1; enable = None })

let reg_connect t r ~next ?enable () =
  match t.nodes.(r) with
  | Reg { init; _ } -> t.nodes.(r) <- Reg { init; next; enable }
  | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
  | Zext _ | Sext _ | Mem_read _ ->
    invalid_arg "Netlist.reg_connect: not a register"

let reg t ~init ~next ?enable () =
  add t ~width:(Bitvec.width init) (Reg { init; next; enable })

let add_mem t ~name ~word_width ~depth ?init () =
  let m =
    { mem_name = name; word_width; depth; write_port = None; init }
  in
  t.mems <- t.mems @ [ m ];
  List.length t.mems - 1

let mem_read t ~mem ~addr =
  let m = List.nth t.mems mem in
  add t ~width:m.word_width (Mem_read { mem; addr })

let mem_write t ~mem ~we ~addr ~data =
  let m = List.nth t.mems mem in
  (match m.write_port with
  | None -> ()
  | Some _ -> invalid_arg "Netlist.mem_write: write port already connected");
  m.write_port <- Some (we, addr, data)

let mems t = Array.of_list t.mems

let set_output t name s = t.outputs <- (name, s) :: t.outputs
let outputs t = List.rev t.outputs

let inputs t =
  let acc = ref [] in
  for s = t.count - 1 downto 0 do
    match t.nodes.(s) with
    | Input n -> acc := (n, s) :: !acc
    | Const _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _ | Zext _
    | Sext _ | Reg _ | Mem_read _ -> ()
  done;
  !acc

(** Combinational fan-in of a node (register nexts are sequential edges and
    are not included; use [sequential_deps] for those). *)
let comb_deps = function
  | Const _ | Input _ | Reg _ -> []
  | Unop (_, a) -> [ a ]
  | Binop (_, a, b) -> [ a; b ]
  | Mux { sel; if_true; if_false } -> [ sel; if_true; if_false ]
  | Concat { hi; lo } -> [ hi; lo ]
  | Extract { arg; _ } | Zext { arg; _ } | Sext { arg; _ } -> [ arg ]
  | Mem_read { addr; _ } -> [ addr ]

let sequential_deps = function
  | Reg { next; enable; _ } ->
    next :: (match enable with None -> [] | Some e -> [ e ])
  | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
  | Zext _ | Sext _ | Mem_read _ -> []

let count_if t pred =
  let n = ref 0 in
  for s = 0 to t.count - 1 do
    if pred t.nodes.(s) then incr n
  done;
  !n

let num_registers t =
  count_if t (function
    | Reg _ -> true
    | Const _ | Input _ | Unop _ | Binop _ | Mux _ | Concat _ | Extract _
    | Zext _ | Sext _ | Mem_read _ -> false)

let string_of_unop = function
  | U_not -> "~" | U_neg -> "-" | U_reduce_or -> "|"

let string_of_binop = function
  | B_add -> "+" | B_sub -> "-" | B_mul -> "*"
  | B_udiv -> "u/" | B_urem -> "u%" | B_sdiv -> "/" | B_srem -> "%"
  | B_and -> "&" | B_or -> "|" | B_xor -> "^"
  | B_shl -> "<<" | B_lshr -> ">>" | B_ashr -> ">>>"
  | B_eq -> "==" | B_ne -> "!=" | B_ult -> "u<" | B_ule -> "u<="
  | B_slt -> "<" | B_sle -> "<="
