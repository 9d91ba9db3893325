(** Operation scheduling for behavioural synthesis: ASAP, ALAP, and
    resource-constrained list scheduling with operator chaining under a
    cycle-time budget.

    Contract with the FSMD backends: instructions placed in the same step
    keep their original order and see each other's results as wires;
    a load may not share a step with (or precede) a store it depends on
    unless [mem_forwarding] models register-file memories; WAR/WAW edges
    only require non-decreasing steps. *)

type resource_class = Adder | Multiplier | Divider | Shifter | Logic | Mem

val class_of_instr : Cir.instr -> resource_class

type resources = {
  adders : int option;  (** [None] = unconstrained *)
  multipliers : int option;
  dividers : int option;
  shifters : int option;
  mem_read_ports : int;  (** per region, per step *)
  mem_write_ports : int;
  chain_budget : float;  (** max chained delay per step; [infinity] ok *)
  mem_forwarding : bool;  (** same-step store->load allowed *)
}

val unconstrained : resources

val default_allocation : resources
(** A typical datapath: 2 adders, 1 multiplier, 1 divider, 1 shifter, one
    read and one write port per region, chain budget 20. *)

val capacity : resources -> resource_class -> int
(** Units of a class available per step (at least 1; [max_int] when
    unconstrained). *)

type resource = Class of resource_class | Port of int * [ `Read | `Write ]
(** What an instruction competes for within a step: its class, or for a
    memory access its (region, direction) port.  Class [Mem] is
    unbounded, so the port is a memory access's only limit. *)

val resource_of : resources -> Cir.instr -> resource * int
(** An instruction's resource and how many uses of it fit per step
    ([max_int] when unbounded). *)

val instr_delay : Cir.func -> Cir.instr -> float
(** Combinational delay of one instruction under the Area model. *)

type schedule = {
  steps : int array;  (** control step of each instruction *)
  num_steps : int;
  step_delay : float array;  (** accumulated chained delay per step *)
}

val list_schedule : Cir.func -> resources -> Cir.instr list -> schedule
(** Priority list scheduling (longest path to a sink) of one basic block
    under [resources]. *)

val asap : Cir.func -> Cir.instr list -> schedule
(** List scheduling with no resource limits. *)

val alap : Cir.func -> Cir.instr list -> schedule
(** Latest legal steps within the ASAP makespan, same dependence model as
    the unconstrained ASAP. *)

val slack : Cir.func -> Cir.instr list -> int array
(** ALAP - ASAP step per instruction; zero-slack operations are on the
    critical path. *)

val ops_per_step : schedule -> int array
(** Parallelism profile: operations issued in each step. *)
