(* The parse-once compile driver.  See driver.mli. *)

type error =
  | Frontend_error of { message : string; loc : Ast.loc }
  | No_c_frontend of { backend : string }
  | Dialect_reject of { backend : string;
                        violations : Dialect.violation list }
  | Backend_error of { backend : string; message : string; loc : Ast.loc }
  | Verification_error of { backend : string; message : string }
  | Constraint_infeasible of { backend : string; message : string }

type session = {
  source : string;
  entry : string;
  digest : string;
  metrics : Metrics.t;
  mutable frontend : (Ast.program, error) result option;
}

let create ?(entry = "main") source =
  { source; entry; digest = Digest.to_hex (Digest.string source);
    metrics = Metrics.create (); frontend = None }

let entry t = t.entry
let source_digest t = t.digest
let metrics t = t.metrics

let render_loc ?file (loc : Ast.loc) =
  if loc = Ast.no_loc then Option.value file ~default:""
  else
    Printf.sprintf "%s%d:%d"
      (match file with Some f -> f ^ ":" | None -> "")
      loc.Ast.line loc.Ast.col

let render_error ?file = function
  | Frontend_error { message; loc } ->
    let where = render_loc ?file loc in
    if where = "" then Printf.sprintf "error: %s" message
    else Printf.sprintf "%s: error: %s" where message
  | No_c_frontend { backend } ->
    Printf.sprintf "%s: structural EDSL, no C frontend — build designs \
                    with the Ocapi module" backend
  | Dialect_reject { backend; violations } -> (
    match violations with
    | { Dialect.rule; where; vloc } :: _ ->
      let at = render_loc ?file vloc in
      if at = "" then
        Printf.sprintf "%s: dialect rejects: %s (in %s)" backend rule where
      else
        Printf.sprintf "%s: dialect rejects: %s (in %s, at %s)" backend rule
          where at
    | [] -> Printf.sprintf "%s: dialect rejects" backend)
  | Backend_error { backend; message; loc } ->
    let where = render_loc ?file loc in
    if where = "" then Printf.sprintf "%s: error: %s" backend message
    else Printf.sprintf "%s: %s: error: %s" backend where message
  | Verification_error { backend; message } ->
    Printf.sprintf "%s: pass verification failed: %s" backend message
  | Constraint_infeasible { backend; message } ->
    Printf.sprintf "%s: unsatisfiable timing constraints: %s" backend message

(* --- cache bookkeeping --- *)

(* content hash -> design; process-wide so sessions over the same source
   (and repeated sessions in one run) share artifacts.  The decoded
   front tier is always on; attaching a byte store (usually Cache.Disk)
   makes warm-cache state survive restarts and lets workers share.  A
   design is a bundle of closures, so the codec is Marshal with the
   Closures flag — only readable by the binary that wrote it, which is
   why the disk store versions entries by executable digest. *)
let design_cache : Design.t Cache.t =
  Cache.create ~name:"designs"
    ~encode:(fun d ->
      try Some (Marshal.to_string (d : Design.t) [ Marshal.Closures ])
      with _ -> None)
    ~decode:(fun s ->
      try Some (Marshal.from_string s 0 : Design.t) with _ -> None)
    ()

let cache_size () = Cache.size design_cache
let clear_cache () = Cache.clear design_cache

let set_cache_store s = Cache.set_store design_cache s
let cache_store () = Cache.store design_cache

let attach_disk_cache ?max_bytes ~dir () =
  match Cache.Disk.open_dir ?max_bytes dir with
  | Ok d ->
    let s = Cache.Disk.store d in
    set_cache_store (Some s);
    Ok s
  | Error _ as e -> e

(* Global cache-subsystem state (store counters, residency) as metric
   pairs, for the CLI's reports and [chlsc cache stats]. *)
let cache_metrics () =
  let front =
    [ ("driver.cache.front_entries", cache_size ());
      ("driver.cache.decode_failures", Cache.decode_failures design_cache) ]
  in
  let front =
    front
    @ [ ("driver.cache.front_hits", Cache.front_hits design_cache);
        ("driver.cache.front_misses", Cache.front_misses design_cache) ]
  in
  match cache_store () with
  | None -> front
  | Some s ->
    let c = Cache.store_counters s in
    front
    @ [ ("driver.store.hits", c.Cache.hits);
        ("driver.store.misses", c.Cache.misses);
        ("driver.store.puts", c.Cache.puts);
        ("driver.store.evictions", c.Cache.evictions);
        ("driver.store.corrupt", c.Cache.corrupt);
        ("driver.store.version_skew", c.Cache.version_skew);
        ("driver.store.entries", c.Cache.entries);
        ("driver.store.bytes", c.Cache.bytes) ]

(* Derived hit rates, only where there was traffic: a fresh process has
   no lookups and a percentage would be noise, so absent beats 0%. *)
let cache_hit_rates () =
  let rate hits misses =
    let total = hits + misses in
    if total = 0 then None
    else Some (100. *. float_of_int hits /. float_of_int total)
  in
  let front =
    match
      rate (Cache.front_hits design_cache) (Cache.front_misses design_cache)
    with
    | Some r -> [ ("driver.cache.front_hit_rate_pct", r) ]
    | None -> []
  in
  let store =
    match cache_store () with
    | None -> []
    | Some s -> (
      let c = Cache.store_counters s in
      match rate c.Cache.hits c.Cache.misses with
      | Some r -> [ ("driver.store.hit_rate_pct", r) ]
      | None -> [])
  in
  front @ store

let hit t kind =
  Metrics.incr t.metrics "driver.cache.hits";
  Metrics.incr t.metrics (Printf.sprintf "driver.cache.%s_hits" kind)

let miss t kind =
  Metrics.incr t.metrics "driver.cache.misses";
  Metrics.incr t.metrics (Printf.sprintf "driver.cache.%s_misses" kind)

(* The configuration is part of the compile's identity — resource
   bounds, unroll factor, verify vectors and dump hooks all change what
   the backend produces or does — so its digest joins the content hash.
   Distinct config points are distinct cached designs, on disk too. *)
let design_key t backend config =
  Printf.sprintf "%s|%s|%s|%s" t.digest (Registry.name backend) t.entry
    (Config.digest config)

(* --- the frontend, exactly once per session --- *)

let program ?(ctx = Span.null) t =
  Span.span ctx "frontend" (fun sctx ->
      match t.frontend with
      | Some r ->
        hit t "frontend";
        Span.add_attr sctx "memo" (Metrics.Bool true);
        r
      | None ->
        miss t "frontend";
        Span.add_attr sctx "memo" (Metrics.Bool false);
        let t0 = Sys.time () in
        let r =
          match Typecheck.parse_and_check t.source with
          | p -> Ok p
          | exception Parser.Error (message, loc) ->
            Error (Frontend_error { message; loc })
          | exception Typecheck.Error (message, loc) ->
            Error (Frontend_error { message; loc })
        in
        Metrics.add_ms t.metrics "driver.frontend_ms"
          ((Sys.time () -. t0) *. 1000.);
        (match r with
        | Error _ -> Span.add_attr sctx "rejected" (Metrics.Bool true)
        | Ok _ -> ());
        t.frontend <- Some r;
        r)

(* --- per-backend compilation --- *)

(* Passes cannot open spans itself (chl_ir sits below chl_obs in the
   library order), so pass spans are reconstructed post hoc from the
   trace records a fresh compile produced: each record carries its own
   start offset within the pipeline run, anchored at [at] — the trace
   offset where the backend compile began. *)
let emit_pass_spans ctx ~at (trace : Passes.trace) =
  List.iter
    (fun (r : Passes.record) ->
      Span.emit ctx
        ~attrs:
          [ ( "level",
              Metrics.String
                (match r.Passes.level with
                | Passes.Source -> "source"
                | Passes.Ir -> "ir") );
            ("blocks", Metrics.Int r.Passes.after.Passes.blocks);
            ( "instrs_delta",
              Metrics.Int
                (r.Passes.after.Passes.instrs - r.Passes.before.Passes.instrs)
            );
            ("verified", Metrics.Int r.Passes.verified) ]
        ~start_ms:(at +. r.Passes.start_ms) ~dur_ms:r.Passes.wall_ms
        ("pass:" ^ r.Passes.pass_name))
    trace

let compile ?(ctx = Span.null) ?(config = Config.default) t backend =
  match program ~ctx t with
  | Error e -> Error e
  | Ok prog ->
    let name = Registry.name backend in
    if not (Registry.capabilities backend).Backend.c_frontend then
      Error (No_c_frontend { backend = name })
    else begin
      let violations =
        Span.span ctx "dialect-check"
          ~attrs:[ ("backend", Metrics.String name) ]
          (fun sctx ->
            let vs = Dialect.check (Registry.dialect backend) prog in
            Span.add_attr sctx "violations" (Metrics.Int (List.length vs));
            vs)
      in
      match violations with
      | _ :: _ as violations ->
        Error (Dialect_reject { backend = name; violations })
      | [] ->
        Span.span ctx "backend"
          ~attrs:[ ("backend", Metrics.String name) ]
          (fun sctx ->
        let key = design_key t backend config in
        match Cache.find design_cache key with
        | Some (design, `Front) ->
          hit t "design";
          Span.add_attr sctx "cache" (Metrics.String "front");
          Ok design
        | Some (design, `Store) ->
          (* revived from the persistent store: a hit that did no
             backend work, distinguished so benchmarks can see
             restart-survival *)
          hit t "design_store";
          Span.add_attr sctx "cache" (Metrics.String "store");
          Ok design
        | None ->
          miss t "design";
          Span.add_attr sctx "cache" (Metrics.String "miss");
          let t0 = Sys.time () in
          let at = Span.elapsed_ms sctx in
          let r =
            match
              Registry.compile backend ~knobs:(Config.knobs config) prog
                ~entry:t.entry
            with
            | design ->
              Cache.add design_cache key design;
              (* only a fresh compile has live pass timings — a cached
                 design's pass_trace describes work another request did *)
              emit_pass_spans sctx ~at design.Design.pass_trace;
              Ok design
            | exception Backend.No_c_frontend b ->
              Error (No_c_frontend { backend = b })
            | exception Backend.Dialect_rejected { backend; violations } ->
              (* a backend entered through a side door (another backend's
                 fallback, a stricter embedded check) still reports a
                 dialect property, not an internal failure *)
              Error (Dialect_reject { backend; violations })
            | exception Ssa.Timeout { func_name; max_steps } ->
              Error
                (Backend_error
                   { backend = name;
                     message =
                       Printf.sprintf
                         "ssa evaluation timed out in %s after %d steps"
                         func_name max_steps;
                     loc = Ast.no_loc })
            | exception Lower.Error (message, loc) ->
              Error (Backend_error { backend = name; message; loc })
            | exception Conc_check.Check_failed ds ->
              Error
                (Backend_error
                   { backend = name;
                     message =
                       String.concat "; "
                         (List.map (Conc_check.render ?file:None) ds);
                     loc = Ast.no_loc })
            | exception Passes.Verification_failed message ->
              Error (Verification_error { backend = name; message })
            | exception Hardwarec.Unsatisfiable message ->
              (* a typed verdict, not a failure: the design point asks
                 for timing no allocation can meet — explore sweeps
                 report these as infeasible cells *)
              Error (Constraint_infeasible { backend = name; message })
            | exception Cones.Unsupported message ->
              Error
                (Backend_error
                   { backend = name; message; loc = Ast.no_loc })
            | exception Failure message ->
              Error
                (Backend_error
                   { backend = name; message; loc = Ast.no_loc })
          in
          Metrics.add_ms t.metrics
            (Printf.sprintf "driver.compile.%s_ms" name)
            ((Sys.time () -. t0) *. 1000.);
          r)
    end

let compile_all ?ctx ?config ?backends t =
  let backends =
    match backends with Some bs -> bs | None -> Registry.all ()
  in
  List.map (fun b -> (b, compile ?ctx ?config t b)) backends

let reference ?(ctx = Span.null) t ~args =
  Span.span ctx "oracle"
    ~attrs:[ ("args", Metrics.Int (List.length args)) ]
    (fun sctx ->
      match program ~ctx:sctx t with
      | Error e -> Error e
      | Ok prog -> (
        let width = 64 in
        match
          Interp.run prog ~entry:t.entry
            ~args:(List.map (Bitvec.of_int ~width) args)
        with
        | { Interp.return_value = Some v; _ } -> Ok (Bitvec.to_int v)
        | { Interp.return_value = None; _ } ->
          Error
            (Backend_error
               { backend = "reference"; message = "entry returned void";
                 loc = Ast.no_loc })
        | exception Interp.Runtime_error message ->
          Error
            (Backend_error
               { backend = "reference"; message; loc = Ast.no_loc })
        | exception Interp.Internal_error (message, loc) ->
          Error
            (Backend_error
               { backend = "reference";
                 message = "internal error: " ^ message;
                 loc })
        | exception Interp.Timeout ->
          Error
            (Backend_error
               { backend = "reference";
                 message = "did not terminate within the interpreter's \
                            step budget";
                 loc = Ast.no_loc })))

(* Every simulator's budget exception, classified in one place so serve,
   compile and compare report a run that ran out of budget as a partial
   outcome rather than an uncaught exception. *)
type timeout =
  | Cycles of { cycles : int; state : int }
  | Tokens of { tokens_fired : int; time : float }
  | Limit of string

let run ?ctx ?vcd ?sim design args =
  match Design.run_traced ?ctx ?vcd ?sim design (Design.int_args args) with
  | r -> Ok r
  | exception Rtlsim.Timeout { cycles; state } ->
    Error (Cycles { cycles; state })
  | exception Asim.Timeout { tokens_fired; time } ->
    Error (Tokens { tokens_fired; time })
  | exception Handelc.Timeout -> Error (Limit "handelc")
  | exception C2v_machine.Timeout -> Error (Limit "c2verilog")
  | exception Cir_interp.Timeout -> Error (Limit "cir-interp")

let render_timeout = function
  | Cycles { cycles; state } ->
    Printf.sprintf "timeout after %d cycles (in state %d)" cycles state
  | Tokens { tokens_fired; time } ->
    Printf.sprintf "timeout after %d tokens (at time %.1f)" tokens_fired time
  | Limit sim ->
    Printf.sprintf "timeout: the %s simulator reached its limit" sim
