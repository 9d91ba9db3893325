(* Synthesis configuration as a first-class value.

   Every knob the stack exposes — resource allocation, chaining budget,
   unroll factor, pass options, simulation engine — bundled into one
   record that travels with each compile instead of living in globals or
   per-backend defaults.  The canonical
   rendering and its digest key caches: two compiles of one source under
   different configs are different designs, on disk included. *)

type t = {
  resources : Schedule.resources;
  unroll_factor : int;
  verify : int list list;
  dump_after : string list;
  dump_sink : string -> unit;
  sim : Design.engine;
}

let default =
  { resources = Schedule.default_allocation;
    unroll_factor = 1;
    verify = [];
    dump_after = [];
    dump_sink = print_string;
    sim = Design.Compiled }

let with_resources resources t = { t with resources }

(* --- canonical rendering and digest ----------------------------------- *)

let render_bound = function None -> "*" | Some n -> string_of_int n

(* Chain budgets are designer inputs like "10" or "20.5"; %.17g would
   render them unreadably.  %g is stable for the values that reach us
   (finite decimals and infinity). *)
let render_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let render t =
  let r = t.resources in
  String.concat ";"
    [ "chls.config/2";
      Printf.sprintf "adders=%s" (render_bound r.Schedule.adders);
      Printf.sprintf "multipliers=%s" (render_bound r.Schedule.multipliers);
      Printf.sprintf "dividers=%s" (render_bound r.Schedule.dividers);
      Printf.sprintf "shifters=%s" (render_bound r.Schedule.shifters);
      Printf.sprintf "mem_read_ports=%d" r.Schedule.mem_read_ports;
      Printf.sprintf "mem_write_ports=%d" r.Schedule.mem_write_ports;
      Printf.sprintf "chain_budget=%s" (render_float r.Schedule.chain_budget);
      Printf.sprintf "mem_forwarding=%b" r.Schedule.mem_forwarding;
      Printf.sprintf "unroll=%d" t.unroll_factor;
      Printf.sprintf "verify=%s"
        (String.concat "|"
           (List.map
              (fun v -> String.concat "," (List.map string_of_int v))
              t.verify));
      Printf.sprintf "dump_after=%s" (String.concat "," t.dump_after);
      Printf.sprintf "sim=%s" (Design.engine_name t.sim) ]

let digest t = Digest.to_hex (Digest.string (render t))

let equal a b = render a = render b

(* --- backend knobs ---------------------------------------------------- *)

let knobs t =
  { Backend.resources = t.resources;
    unroll_factor = t.unroll_factor;
    pass_options =
      { Passes.verify = t.verify;
        dump_after = t.dump_after;
        dump_sink = t.dump_sink } }

(* --- JSON (for serve requests and metrics reports) --------------------- *)

let to_json t =
  let r = t.resources in
  let bound = function
    | None -> Metrics.Null
    | Some n -> Metrics.Int n
  in
  Metrics.Obj
    [ ("adders", bound r.Schedule.adders);
      ("multipliers", bound r.Schedule.multipliers);
      ("dividers", bound r.Schedule.dividers);
      ("shifters", bound r.Schedule.shifters);
      ("mem_read_ports", Metrics.Int r.Schedule.mem_read_ports);
      ("mem_write_ports", Metrics.Int r.Schedule.mem_write_ports);
      ("chain_budget", Metrics.Float r.Schedule.chain_budget);
      ("mem_forwarding", Metrics.Bool r.Schedule.mem_forwarding);
      ("unroll", Metrics.Int t.unroll_factor);
      ("verify",
       Metrics.List
         (List.map
            (fun v -> Metrics.List (List.map (fun n -> Metrics.Int n) v))
            t.verify));
      ("sim", Metrics.String (Design.engine_name t.sim)) ]

(* dump_after/dump_sink are deliberately absent from of_json: a remote
   client has nowhere for dumps to go. *)
let of_json (j : Metrics.json) : (t, string) result =
  let ( let* ) = Result.bind in
  match j with
  | Metrics.Obj fields ->
    let known =
      [ "adders"; "multipliers"; "dividers"; "shifters"; "mem_read_ports";
        "mem_write_ports"; "chain_budget"; "mem_forwarding"; "unroll";
        "verify"; "sim" ]
    in
    let* () =
      match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
      | Some (k, _) -> Error (Printf.sprintf "config: unknown field %S" k)
      | None -> Ok ()
    in
    let field name = List.assoc_opt name fields in
    let bound name default =
      match field name with
      | None -> Ok default
      | Some Metrics.Null -> Ok None
      | Some (Metrics.Int n) when n >= 1 -> Ok (Some n)
      | Some _ -> Error (Printf.sprintf "config: %s must be null or int >= 1" name)
    in
    let int name default ~min =
      match field name with
      | None -> Ok default
      | Some (Metrics.Int n) when n >= min -> Ok n
      | Some _ -> Error (Printf.sprintf "config: %s must be an int >= %d" name min)
    in
    let num name default =
      match field name with
      | None -> Ok default
      | Some (Metrics.Int n) when n >= 1 -> Ok (float_of_int n)
      | Some (Metrics.Float f) when f >= 1. -> Ok f
      | Some _ -> Error (Printf.sprintf "config: %s must be a number >= 1" name)
    in
    let bool name default =
      match field name with
      | None -> Ok default
      | Some (Metrics.Bool b) -> Ok b
      | Some _ -> Error (Printf.sprintf "config: %s must be a bool" name)
    in
    let d = default and dr = default.resources in
    let* adders = bound "adders" dr.Schedule.adders in
    let* multipliers = bound "multipliers" dr.Schedule.multipliers in
    let* dividers = bound "dividers" dr.Schedule.dividers in
    let* shifters = bound "shifters" dr.Schedule.shifters in
    let* mem_read_ports =
      int "mem_read_ports" dr.Schedule.mem_read_ports ~min:1
    in
    let* mem_write_ports =
      int "mem_write_ports" dr.Schedule.mem_write_ports ~min:1
    in
    let* chain_budget = num "chain_budget" dr.Schedule.chain_budget in
    let* mem_forwarding = bool "mem_forwarding" dr.Schedule.mem_forwarding in
    let* unroll_factor = int "unroll" d.unroll_factor ~min:1 in
    let* verify =
      match field "verify" with
      | None -> Ok d.verify
      | Some (Metrics.List vs) ->
        let vector = function
          | Metrics.List ns ->
            List.fold_right
              (fun n acc ->
                let* acc = acc in
                match n with
                | Metrics.Int n -> Ok (n :: acc)
                | _ -> Error "config: verify vectors must be ints")
              ns (Ok [])
          | _ -> Error "config: verify must be a list of int lists"
        in
        List.fold_right
          (fun v acc ->
            let* acc = acc in
            let* v = vector v in
            Ok (v :: acc))
          vs (Ok [])
      | Some _ -> Error "config: verify must be a list of int lists"
    in
    let* sim =
      match field "sim" with
      | None -> Ok d.sim
      | Some (Metrics.String s) -> (
        match Design.engine_of_name s with
        | Some e -> Ok e
        | None -> Error (Printf.sprintf "config: unknown sim engine %S" s))
      | Some _ -> Error "config: sim must be a string"
    in
    Ok
      { resources =
          { Schedule.adders; multipliers; dividers; shifters;
            mem_read_ports; mem_write_ports; chain_budget; mem_forwarding };
        unroll_factor;
        verify;
        dump_after = d.dump_after;
        dump_sink = d.dump_sink;
        sim }
  | _ -> Error "config: expected an object"
