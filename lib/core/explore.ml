(* Design-space exploration: sweep a grid of synthesis configurations
   through the driver and report the Pareto front.

   The paper's Table 1 compares compilers along fixed axes; this module
   turns the reproduction's knobs — resource bounds, chaining budget,
   unroll factor, backend — into an enumerable grid, compiles every
   point through {!Driver.compile} (each point is its own config digest,
   so the artifact cache memoizes per point, on disk included), runs the
   produced design against the interpreter oracle, and computes the
   front that minimizes (area, cycles, clock period).

   Points are evaluated on a small pool of OCaml 5 domains: each worker
   owns its own {!Driver.session} (the frontend memo is per-session
   mutable state) while compiled designs flow through the mutex-guarded
   process-wide cache, so a warm re-run is all hits. *)

(* --- the grid ---------------------------------------------------------- *)

type grid = {
  adders : int option list;  (* adder bound per point; [None] unbounded *)
  chains : float list;  (* chaining (cycle-time) budgets *)
  unrolls : int list;  (* partial unroll factors; 1 disables *)
}

(* chain budgets straddle the chaining knee: 10 forces one op per state
   on the survey kernels' delay model, 200 lets whole blocks chain *)
let default_grid =
  { adders = [ Some 1; Some 2 ]; chains = [ 10.; 200. ]; unrolls = [ 1; 2 ] }

let grid_size g ~backends =
  List.length g.adders * List.length g.chains * List.length g.unrolls
  * backends

(* "adders=1,2;chain=10,20;unroll=1,2" — unset axes keep the default.
   An adder bound of [*] means unconstrained. *)
let parse_grid spec : (grid, string) result =
  let parse_values key conv values =
    let parts =
      String.split_on_char ',' values
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    if parts = [] then Error (Printf.sprintf "%s: empty value list" key)
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | v :: rest -> (
          match conv v with
          | Some x -> go (x :: acc) rest
          | None -> Error (Printf.sprintf "%s: bad value %S" key v))
      in
      go [] parts
  in
  let int_bound s =
    if s = "*" then Some None
    else
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some (Some n)
      | _ -> None
  in
  let pos_int s =
    match int_of_string_opt s with Some n when n >= 1 -> Some n | None | Some _ -> None
  in
  let pos_float s =
    match float_of_string_opt s with
    | Some f when f > 0. -> Some f
    | _ -> None
  in
  let segments =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go g = function
    | [] -> Ok g
    | seg :: rest -> (
      match String.index_opt seg '=' with
      | None -> Error (Printf.sprintf "grid: %S is not key=v1,v2,..." seg)
      | Some i -> (
        let key = String.trim (String.sub seg 0 i) in
        let values = String.sub seg (i + 1) (String.length seg - i - 1) in
        match key with
        | "adders" -> (
          match parse_values key int_bound values with
          | Ok vs -> go { g with adders = vs } rest
          | Error e -> Error e)
        | "chain" -> (
          match parse_values key pos_float values with
          | Ok vs -> go { g with chains = vs } rest
          | Error e -> Error e)
        | "unroll" -> (
          match parse_values key pos_int values with
          | Ok vs -> go { g with unrolls = vs } rest
          | Error e -> Error e)
        | _ ->
          Error
            (Printf.sprintf
               "grid: unknown axis %S (expected adders, chain or unroll)"
               key)))
  in
  go default_grid segments

(* Enumeration order is contractual (backend-major, then adders, chains,
   unrolls) so cell indices are stable across runs and reports. *)
let points grid backends : (Registry.t * Config.t) list =
  List.concat_map
    (fun backend ->
      List.concat_map
        (fun adders ->
          List.concat_map
            (fun chain ->
              List.map
                (fun unroll ->
                  let config =
                    { Config.default with
                      Config.resources =
                        { Schedule.default_allocation with
                          Schedule.adders;
                          chain_budget = chain };
                      unroll_factor = unroll }
                  in
                  (backend, config))
                grid.unrolls)
            grid.chains)
        grid.adders)
    backends

let rebase base (backend, config) =
  ( backend,
    { base with
      Config.resources = config.Config.resources;
      unroll_factor = config.Config.unroll_factor } )

(* --- one point --------------------------------------------------------- *)

type measurement = {
  m_area : float option;  (* Area.report.total_area *)
  m_registers : int option;
  m_cycles : int option;  (* simulated cycles on [args] *)
  m_period : float option;  (* achieved clock period estimate *)
  m_latency : float option;  (* cycles x period, when both known *)
  m_verified : bool;  (* simulation matched the interpreter oracle *)
}

type status =
  | Measured of measurement
  | Infeasible of string  (* typed: no allocation meets the constraints *)
  | Rejected of string  (* dialect restriction / no C frontend *)
  | Failed of string  (* a real error: compile, run or verify crashed *)

type cell = {
  cell_backend : string;
  cell_config : Config.t;
  cell_digest : string;  (* Config.digest — the cache-key component *)
  cell_status : status;
  cell_wall_ms : float;
}

let evaluate session backend config ~args ~(expected : (int, string) result)
    : status =
  match Driver.compile ~config session backend with
  | Error (Driver.Constraint_infeasible { message; _ }) -> Infeasible message
  | Error ((Driver.Dialect_reject _ | Driver.No_c_frontend _) as e) ->
    Rejected (Driver.render_error e)
  | Error e -> Failed (Driver.render_error e)
  | Ok design -> (
    match Driver.run ~sim:config.Config.sim design args with
    | exception exn ->
      Failed (Printf.sprintf "simulation raised %s" (Printexc.to_string exn))
    | Error t -> Failed ("simulation " ^ Driver.render_timeout t)
    | Ok r ->
      let observed = Option.map Bitvec.to_int r.Design.result in
      let verified =
        match expected with Ok e -> observed = Some e | Error _ -> false
      in
      let report = design.Design.area () in
      Measured
        { m_area = Option.map (fun a -> a.Area.total_area) report;
          m_registers = Option.map (fun a -> a.Area.num_registers) report;
          m_cycles = r.Design.cycles;
          m_period = design.Design.clock_period;
          m_latency = Design.latency_estimate design r;
          m_verified = verified })

(* --- the sweep --------------------------------------------------------- *)

type sweep = {
  sw_entry : string;
  sw_args : int list;
  sw_cells : cell list;  (* in {!points} enumeration order *)
  sw_pareto : int list;  (* ascending indices into [sw_cells] *)
  sw_wall_ms : float;
}

(* a dominates b: no worse on every axis, strictly better on one.
   Cells missing any axis never enter the front (and dominate nothing). *)
let dominates a b =
  match
    (a.m_area, a.m_cycles, a.m_period, b.m_area, b.m_cycles, b.m_period)
  with
  | Some aa, Some ac, Some ap, Some ba, Some bc, Some bp ->
    aa <= ba && ac <= bc && ap <= bp && (aa < ba || ac < bc || ap < bp)
  | _ -> false

let eligible cell =
  match cell.cell_status with
  | Measured m ->
    if
      m.m_verified && m.m_area <> None && m.m_cycles <> None
      && m.m_period <> None
    then Some m
    else None
  | Infeasible _ | Rejected _ | Failed _ -> None

let pareto_front cells : int list =
  let indexed =
    List.mapi (fun i c -> (i, eligible c)) cells
    |> List.filter_map (fun (i, m) ->
           match m with Some m -> Some (i, m) | None -> None)
  in
  (* strict dominance keeps ties; collapse equal-axis duplicates to the
     lowest index so the front lists distinct design points *)
  let same_axes a b =
    a.m_area = b.m_area && a.m_cycles = b.m_cycles && a.m_period = b.m_period
  in
  List.filter_map
    (fun (i, m) ->
      if
        List.exists (fun (j, m') -> j <> i && dominates m' m) indexed
        || List.exists (fun (j, m') -> j < i && same_axes m' m) indexed
      then None
      else Some i)
    indexed

let run ?domains ?(base = Config.default) ~source ~entry ~args grid backends
    : sweep =
  let t0 = Unix.gettimeofday () in
  let pts = Array.of_list (List.map (rebase base) (points grid backends)) in
  let n = Array.length pts in
  let expected =
    let session = Driver.create ~entry source in
    match Driver.reference session ~args with
    | Ok v -> Ok v
    | Error e -> Error (Driver.render_error e)
  in
  let cells = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    (* per-domain session: the frontend memo is session-local mutable
       state; the design cache behind the driver is shared and locked *)
    let session = Driver.create ~entry source in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let backend, config = pts.(i) in
        let c0 = Unix.gettimeofday () in
        let status =
          try evaluate session backend config ~args ~expected
          with exn ->
            Failed (Printf.sprintf "point raised %s" (Printexc.to_string exn))
        in
        cells.(i) <-
          Some
            { cell_backend = Registry.name backend;
              cell_config = config;
              cell_digest = Config.digest config;
              cell_status = status;
              cell_wall_ms = (Unix.gettimeofday () -. c0) *. 1000. };
        loop ()
      end
    in
    loop ()
  in
  let workers =
    match domains with
    | Some d -> max 1 (min d n)
    | None -> max 1 (min 4 (min n (Domain.recommended_domain_count ())))
  in
  let spawned =
    List.init (workers - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join spawned;
  let cells =
    Array.to_list cells
    |> List.map (function
         | Some c -> c
         | None -> assert false (* every index < n was claimed *))
  in
  { sw_entry = entry;
    sw_args = args;
    sw_cells = cells;
    sw_pareto = pareto_front cells;
    sw_wall_ms = (Unix.gettimeofday () -. t0) *. 1000. }

(* --- reporting --------------------------------------------------------- *)

let status_name = function
  | Measured m -> if m.m_verified then "ok" else "unverified"
  | Infeasible _ -> "infeasible"
  | Rejected _ -> "rejected"
  | Failed _ -> "failed"

let count_status sweep name =
  List.length
    (List.filter (fun c -> status_name c.cell_status = name) sweep.sw_cells)

let verified_count sweep =
  List.length
    (List.filter
       (fun c ->
         match c.cell_status with Measured m -> m.m_verified | _ -> false)
       sweep.sw_cells)

let metrics (sweep : sweep) : Metrics.t =
  let m = Metrics.create () in
  Metrics.set_string m "schema" "chls.explore/1";
  Metrics.set_string m "explore.entry" sweep.sw_entry;
  Metrics.set m "explore.args"
    (Metrics.List (List.map (fun a -> Metrics.Int a) sweep.sw_args));
  Metrics.set_int m "explore.points" (List.length sweep.sw_cells);
  Metrics.set_int m "explore.verified" (verified_count sweep);
  List.iter
    (fun s -> Metrics.set_int m ("explore." ^ s) (count_status sweep s))
    [ "infeasible"; "rejected"; "failed"; "unverified" ];
  Metrics.set m "explore.pareto"
    (Metrics.List (List.map (fun i -> Metrics.Int i) sweep.sw_pareto));
  Metrics.set_fixed m "explore.wall_ms" ~decimals:1 sweep.sw_wall_ms;
  List.iteri
    (fun i c ->
      let p key = Printf.sprintf "explore.cell.%d.%s" i key in
      Metrics.set_string m (p "backend") c.cell_backend;
      Metrics.set_string m (p "config") (Config.digest c.cell_config);
      Metrics.set m (p "knobs") (Config.to_json c.cell_config);
      Metrics.set_string m (p "status") (status_name c.cell_status);
      Metrics.set_bool m (p "pareto") (List.mem i sweep.sw_pareto);
      (match c.cell_status with
      | Measured meas ->
        let opt_float key = function
          | Some v -> Metrics.set_fixed m (p key) ~decimals:2 v
          | None -> ()
        in
        opt_float "area" meas.m_area;
        opt_float "period" meas.m_period;
        opt_float "latency" meas.m_latency;
        (match meas.m_registers with
        | Some r -> Metrics.set_int m (p "registers") r
        | None -> ());
        (match meas.m_cycles with
        | Some cy -> Metrics.set_int m (p "cycles") cy
        | None -> ());
        Metrics.set_bool m (p "verified") meas.m_verified
      | Infeasible d | Rejected d | Failed d ->
        Metrics.set_string m (p "detail") d);
      Metrics.set_fixed m (p "wall_ms") ~decimals:1 c.cell_wall_ms)
    sweep.sw_cells;
  List.iter
    (fun (k, v) -> Metrics.set_int m k v)
    (Driver.cache_metrics ());
  m

(* A Table-1-style text table: one row per grid point, Pareto members
   starred.  Returned as header + rows for the CLI's table printer. *)
let table (sweep : sweep) : string list * string list list =
  let header =
    [ "#"; "backend"; "adders"; "chain"; "unroll"; "status"; "area";
      "regs"; "cycles"; "period"; "latency"; "pareto" ]
  in
  let fmt_float = function
    | None -> "-"
    | Some v ->
      if Float.is_integer v && Float.abs v < 1e9 then
        Printf.sprintf "%.0f" v
      else Printf.sprintf "%.2f" v
  in
  let fmt_int = function None -> "-" | Some v -> string_of_int v in
  let rows =
    List.mapi
      (fun i c ->
        let r = c.cell_config.Config.resources in
        let adders =
          match r.Schedule.adders with
          | None -> "*"
          | Some a -> string_of_int a
        in
        let meas =
          match c.cell_status with Measured m -> Some m | _ -> None
        in
        let get f = Option.join (Option.map f meas) in
        [ string_of_int i;
          c.cell_backend;
          adders;
          fmt_float (Some r.Schedule.chain_budget);
          string_of_int c.cell_config.Config.unroll_factor;
          status_name c.cell_status;
          fmt_float (get (fun m -> m.m_area));
          fmt_int (get (fun m -> m.m_registers));
          fmt_int (get (fun m -> m.m_cycles));
          fmt_float (get (fun m -> m.m_period));
          fmt_float (get (fun m -> m.m_latency));
          (if List.mem i sweep.sw_pareto then "*" else "") ])
      sweep.sw_cells
  in
  (header, rows)
