(* The C2Verilog execution engine: a word stack machine with a code ROM
   and one unified RAM, simulated cycle-by-cycle under the backend's rule
   set — and its Design.t wrapper.

   Memory map (word addresses, [memory_words] in all):
     [0, stack_base)         scalar and array globals
     [stack_base, heap_base) the combined evaluation/call stack, growing up
     [heap_base, ...)        the malloc heap, bump-allocated

   The simulator keeps that image in two segments grown on demand, one
   for globals and stack from address 0 and one for the heap from
   [heap_base], so a run allocates in proportion to the words it writes
   rather than the whole RAM.  A word never written reads as zero, as in
   a zero-filled image, and an address outside the image fails as an
   access to it would.

   The invariant maintained throughout is that every stored word is
   already masked to its C type's width, so each [Bin (op, w)]
   reinterprets its operands at width [w] and pushes a masked result. *)

exception Runtime_error of string
exception Timeout

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type state = {
  compiled : C2verilog.compiled;
  (* 64-bit words, each masked to its value width *)
  mutable low : Bitvec.t array; (* [0, length) of [0, heap_base) *)
  mutable heap : Bitvec.t array; (* [heap_base, heap_base + length) *)
  mutable pc : int;
  mutable sp : int; (* next free slot *)
  mutable fp : int;
  mutable hp : int; (* heap bump pointer *)
  mutable cycles : int;
  mutable executed : int;
}

let word_width = 64
let zero_word = Bitvec.zero word_width

(* What indexing the full image would raise. *)
let outside_image () = invalid_arg "index out of bounds"

let read st addr =
  let c = st.compiled in
  if addr < c.C2verilog.heap_base then
    (* a negative address fails in the array access *)
    if addr < Array.length st.low then st.low.(addr) else zero_word
  else
    let i = addr - c.C2verilog.heap_base in
    if i < Array.length st.heap then st.heap.(i)
    else if addr < c.C2verilog.memory_words then zero_word
    else outside_image ()

(* [seg] grown to hold index [i], at least doubling, at most [cap] words. *)
let grown seg i ~cap =
  let len = min cap (max (i + 1) (2 * Array.length seg)) in
  let bigger = Array.make len zero_word in
  Array.blit seg 0 bigger 0 (Array.length seg);
  bigger

let write st addr v =
  let c = st.compiled in
  let heap_base = c.C2verilog.heap_base in
  if addr < heap_base then begin
    if addr >= Array.length st.low then
      st.low <- grown st.low addr ~cap:heap_base;
    st.low.(addr) <- v
  end
  else begin
    if addr >= c.C2verilog.memory_words then outside_image ();
    let i = addr - heap_base in
    if i >= Array.length st.heap then
      st.heap <- grown st.heap i ~cap:(c.C2verilog.memory_words - heap_base);
    st.heap.(i) <- v
  end

let push st v =
  if st.sp >= st.compiled.C2verilog.heap_base then error "stack overflow";
  write st st.sp (Bitvec.zero_extend ~width:word_width v);
  st.sp <- st.sp + 1

let pop st =
  if st.sp <= 0 then error "stack underflow";
  st.sp <- st.sp - 1;
  read st st.sp

let at_width w v = Bitvec.resize ~signed:false ~width:w v

let step st =
  let code = st.compiled.C2verilog.code in
  if st.pc < 0 || st.pc >= Array.length code then error "pc out of range";
  let instr = code.(st.pc) in
  st.cycles <- st.cycles + C2verilog.cycles_of_instr instr;
  st.executed <- st.executed + 1;
  let next = st.pc + 1 in
  (match instr with
  | C2verilog.Push v ->
    push st (Bitvec.of_int64 ~width:word_width v);
    st.pc <- next
  | C2verilog.Push_global_addr a ->
    push st (Bitvec.of_int ~width:32 a);
    st.pc <- next
  | C2verilog.Push_frame_addr off ->
    push st (Bitvec.of_int ~width:32 (st.fp + off));
    st.pc <- next
  | C2verilog.Load ->
    let addr = Bitvec.to_int_unsigned (pop st) in
    if addr >= st.compiled.C2verilog.memory_words then
      error "load out of memory (%d)" addr;
    push st (read st addr);
    st.pc <- next
  | C2verilog.Store ->
    let v = pop st in
    let addr = Bitvec.to_int_unsigned (pop st) in
    if addr >= st.compiled.C2verilog.memory_words then
      error "store out of memory (%d)" addr;
    write st addr v;
    st.pc <- next
  | C2verilog.Bin (op, w) ->
    let b = at_width w (pop st) in
    let a = at_width w (pop st) in
    push st (Neteval.apply_binop op a b);
    st.pc <- next
  | C2verilog.Un (op, w) ->
    let a = at_width w (pop st) in
    push st (Neteval.apply_unop op a);
    st.pc <- next
  | C2verilog.Cast { signed; from_width; to_width } ->
    let v = Bitvec.resize ~signed:false ~width:from_width (pop st) in
    push st (Bitvec.resize ~signed ~width:to_width v);
    st.pc <- next
  | C2verilog.Dup ->
    let v = pop st in
    push st v;
    push st v;
    st.pc <- next
  | C2verilog.Drop ->
    ignore (pop st);
    st.pc <- next
  | C2verilog.Jump target -> st.pc <- target
  | C2verilog.Jump_if_zero target ->
    let v = pop st in
    st.pc <- (if Bitvec.is_zero v then target else next)
  | C2verilog.Call (target, _nargs) ->
    push st (Bitvec.of_int ~width:32 next);
    st.pc <- target
  | C2verilog.Enter locals ->
    push st (Bitvec.of_int ~width:32 st.fp);
    st.fp <- st.sp;
    if st.sp + locals >= st.compiled.C2verilog.heap_base then
      error "stack overflow";
    (* locals read as zero *)
    for i = st.sp to st.sp + locals - 1 do
      write st i zero_word
    done;
    st.sp <- st.sp + locals;
    st.pc <- next
  | C2verilog.Ret { args; has_value } ->
    let value = if has_value then Some (pop st) else None in
    st.sp <- st.fp;
    let saved_fp = Bitvec.to_int_unsigned (read st (st.sp - 1)) in
    let ret_pc = Bitvec.to_int_unsigned (read st (st.sp - 2)) in
    st.sp <- st.sp - 2 - args;
    st.fp <- saved_fp;
    (match value with Some v -> push st v | None -> ());
    st.pc <- ret_pc
  | C2verilog.Alloc ->
    let words = max 1 (Bitvec.to_int (at_width 32 (pop st))) in
    if st.hp + words >= st.compiled.C2verilog.memory_words then
      error "heap exhausted";
    push st (Bitvec.of_int ~width:32 st.hp);
    st.hp <- st.hp + words;
    st.pc <- next
  | C2verilog.Halt _ -> error "halt reached outside the boot protocol")

type outcome = {
  return_value : Bitvec.t option;
  cycles : int;
  instructions_executed : int;
  globals : (string * Bitvec.t) list;
  memories : (string * Bitvec.t array) list;
}

(* Stack words a run starts with above the globals; deeper runs grow. *)
let initial_stack_words = 256

let run ?(max_cycles = 50_000_000) (compiled : C2verilog.compiled)
    ~(ret_width : int) ~args : outcome =
  let st =
    { compiled;
      low =
        Array.make
          (min compiled.C2verilog.heap_base
             (compiled.C2verilog.stack_base + initial_stack_words))
          zero_word;
      heap = [||];
      pc = compiled.C2verilog.entry_pc;
      sp = compiled.C2verilog.stack_base;
      fp = compiled.C2verilog.stack_base;
      hp = compiled.C2verilog.heap_base;
      cycles = 0;
      executed = 0 }
  in
  List.iter (fun (addr, v) -> write st addr v) compiled.C2verilog.initial_memory;
  if List.length args <> compiled.C2verilog.entry_args then
    error "expected %d arguments" compiled.C2verilog.entry_args;
  (* boot protocol: args, then a return pc beyond the code *)
  let halt_pc = Array.length compiled.C2verilog.code in
  List.iter (fun v -> push st v) args;
  push st (Bitvec.of_int ~width:32 halt_pc);
  while st.pc <> halt_pc do
    if st.cycles > max_cycles then raise Timeout;
    step st
  done;
  let return_value =
    if ret_width > 0 && st.sp > compiled.C2verilog.stack_base then
      Some (Bitvec.resize ~signed:false ~width:ret_width (pop st))
    else None
  in
  let read_layout () =
    Hashtbl.fold
      (fun name (b : C2verilog.var_binding) (scalars, arrays) ->
        match b.C2verilog.ty with
        | Ctypes.Array (elt, n) ->
          let w = max 1 (Ctypes.width elt) in
          ( scalars,
            ( name,
              Arrays.init ~fill:zero_word n (fun i ->
                  Bitvec.resize ~signed:false ~width:w
                    (read st (b.C2verilog.offset + i))) )
            :: arrays )
        | Ctypes.Void | Ctypes.Integer _ | Ctypes.Pointer _
        | Ctypes.Function _ ->
          let w = max 1 (Ctypes.width b.C2verilog.ty) in
          ( ( name,
              Bitvec.resize ~signed:false ~width:w
                (read st b.C2verilog.offset) )
            :: scalars,
            arrays ))
      compiled.C2verilog.globals_layout ([], [])
  in
  let globals, memories = read_layout () in
  { return_value;
    cycles = st.cycles;
    instructions_executed = st.executed;
    globals;
    memories }

(* --- Design wrapper --- *)

(* C2Verilog compiles the AST straight to stack code (pointers and
   recursion need the unified memory, not CIR's partitioned model), so
   its declared pipeline is source-only and empty. *)
let pipeline = Passes.pipeline "c2verilog" ~lowers:false

let compile ?(knobs = Backend.default_knobs) (program : Ast.program) ~entry :
    Design.t =
  Backend.reject_if_illegal ~backend:"c2verilog" Dialect.c2verilog program;
  let program, pass_trace =
    Passes.run_program_passes ~options:knobs.Backend.pass_options pipeline
      program ~entry
  in
  let compiled = C2verilog.compile_program program ~entry in
  let verilog = lazy (C2v_verilog.to_string compiled ~name:entry) in
  (* a cached design may be shared across domains; a lazy must not be
     forced from two at once *)
  let lock = Design.new_lock () in
  let ret_width =
    match Ast.find_func program entry with
    | Some f -> max 0 (Ctypes.width f.Ast.f_ret)
    | None -> 0
  in
  let pointer_info = Pointer.analyze program in
  let run ?vcd:_ ?sim:_ args =
    let outcome = run compiled ~ret_width ~args in
    let metrics = Metrics.create () in
    Metrics.set_int metrics "sim.cycles" outcome.cycles;
    { Design.result = outcome.return_value;
      globals = outcome.globals;
      memories = outcome.memories;
      cycles = Some outcome.cycles;
      time_units = None;
      metrics }
  in
  let code_words = Array.length compiled.C2verilog.code in
  { Design.design_name = entry;
    backend = "c2verilog";
    run;
    area =
      (fun () ->
        (* fixed CPU datapath + code ROM + unified RAM *)
        let cpu = 9_000. in
        let rom = float_of_int (code_words * 40) in
        let ram_bits = compiled.C2verilog.memory_words * 64 in
        Some
          { Area.combinational_area = cpu;
            register_area = 600.;
            memory_bits = ram_bits + (code_words * 40);
            memory_area = rom +. float_of_int ram_bits;
            total_area = cpu +. 600. +. rom +. float_of_int ram_bits;
            critical_path = 30.;
            num_nodes = code_words;
            num_registers = 4 })
    ;
    verilog =
      (fun () ->
        Some (Design.with_lock lock (fun () -> Lazy.force verilog)));
    netlist = (fun () -> None);
    clock_period = Some 30.;
    stats =
      [ ("code words", string_of_int code_words);
        ("unified memory words",
         string_of_int compiled.C2verilog.memory_words);
        ("pointers fully partitionable",
         string_of_bool (Pointer.fully_partitionable pointer_info)) ];
    pass_trace }

let descriptor =
  Backend.make ~name:"c2verilog" ~aliases:[ "c2v" ]
    ~pipeline:(Some pipeline)
    ~description:"full ANSI C on a synthesized stack machine with one \
                  unified memory"
    ~dialect:Dialect.c2verilog
    (fun ~knobs program ~entry -> compile ~knobs program ~entry)
