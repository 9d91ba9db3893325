(* Backend self-description records.  See backend.mli for the story:
   descriptors replace the closed variant the facade used to dispatch
   on; lib/core/registry.ml collects them. *)

type capabilities = {
  c_frontend : bool;
  constraint_reports : bool;
}

let default_capabilities = { c_frontend = true; constraint_reports = false }

type knobs = {
  resources : Schedule.resources;
  unroll_factor : int;
  pass_options : Passes.options;
}

let default_knobs =
  { resources = Schedule.default_allocation;
    unroll_factor = 1;
    pass_options = Passes.default_options }

let specialize knobs pl =
  if knobs.unroll_factor < 2 then pl
  else
    { pl with
      Passes.pl_program_passes =
        Passes.unroll_factor_pass knobs.unroll_factor
        :: pl.Passes.pl_program_passes }

type descriptor = {
  name : string;
  aliases : string list;
  description : string;
  dialect : Dialect.t;
  pipeline : Passes.pipeline option;
  compile : knobs:knobs -> Ast.program -> entry:string -> Design.t;
  capabilities : capabilities;
}

exception No_c_frontend of string

exception
  Dialect_rejected of {
    backend : string;
    violations : Dialect.violation list;
  }

let reject_if_illegal ~backend dialect program =
  match Dialect.check dialect program with
  | [] -> ()
  | violations -> raise (Dialect_rejected { backend; violations })

let make ?(aliases = []) ?(capabilities = default_capabilities)
    ?(pipeline = None) ~name ~description ~dialect compile =
  { name; aliases; description; dialect; pipeline; compile; capabilities }
