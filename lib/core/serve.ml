(* chlsc serve: length-prefixed JSON protocol + Domain pool.  See
   serve.mli for the wire-protocol reference.

   Layering: Json/Frame are the pure codec (unit-testable without a
   socket), [parse_request] is the typed decode, [Pool] owns the worker
   domains and the bounded job queue, and [run] is the accept loop that
   glues a Unix-domain socket to the pool.  Every failure mode a peer
   can trigger — malformed JSON, unknown ops, oversized frames, compile
   errors, even handler bugs — comes back as a typed error response;
   nothing a client sends can kill the daemon. *)

(* --- JSON parsing (rendering lives in Metrics) --- *)

module Json = struct
  exception Fail of string * int

  let fail pos msg = raise (Fail (msg, pos))

  let parse (s : string) : (Metrics.json, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail !pos (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail !pos (Printf.sprintf "expected %s" word)
    in
    let utf8_of_code buf u =
      (* \uXXXX escapes decode to UTF-8 bytes *)
      if u < 0x80 then Buffer.add_char buf (Char.chr u)
      else if u < 0x800 then begin
        Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
      else begin
        Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
        Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
      end
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let escape () =
        match peek () with
        | None -> fail !pos "unterminated escape"
        | Some c -> (
          advance ();
          match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> (
            if !pos + 4 > n then fail !pos "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            match int_of_string_opt ("0x" ^ hex) with
            | Some u ->
              pos := !pos + 4;
              utf8_of_code buf u
            | None -> fail !pos "bad \\u escape")
          | c -> fail !pos (Printf.sprintf "bad escape \\%c" c))
      in
      let rec go () =
        match peek () with
        | None -> fail !pos "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          escape ();
          go ()
        | Some c when Char.code c < 0x20 -> fail !pos "raw control character"
        | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while match peek () with Some c when is_num_char c -> true | _ -> false
      do
        advance ()
      done;
      let lit = String.sub s start (!pos - start) in
      let integral =
        not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit)
      in
      if integral then
        match int_of_string_opt lit with
        | Some i -> Metrics.Int i
        | None -> (
          match float_of_string_opt lit with
          | Some f -> Metrics.Float f
          | None -> fail start (Printf.sprintf "bad number %S" lit))
      else
        match float_of_string_opt lit with
        | Some f -> Metrics.Float f
        | None -> fail start (Printf.sprintf "bad number %S" lit)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail !pos "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Metrics.Obj []
        end
        else begin
          let members = ref [] in
          let rec members_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members_loop ()
            | Some '}' -> advance ()
            | _ -> fail !pos "expected ',' or '}'"
          in
          members_loop ();
          Metrics.Obj (List.rev !members)
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Metrics.List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items_loop ()
            | Some ']' -> advance ()
            | _ -> fail !pos "expected ',' or ']'"
          in
          items_loop ();
          Metrics.List (List.rev !items)
        end
      | Some '"' -> Metrics.String (parse_string ())
      | Some 't' -> literal "true" (Metrics.Bool true)
      | Some 'f' -> literal "false" (Metrics.Bool false)
      | Some 'n' -> literal "null" Metrics.Null
      | Some ('0' .. '9' | '-') -> parse_number ()
      | Some c -> fail !pos (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail !pos "trailing bytes after JSON value";
      v
    with
    | v -> Ok v
    | exception Fail (msg, p) ->
      Error (Printf.sprintf "JSON parse error at offset %d: %s" p msg)

  let member name = function
    | Metrics.Obj members -> List.assoc_opt name members
    | _ -> None
end

(* --- framing --- *)

module Frame = struct
  let max_frame = 16 * 1024 * 1024

  exception Protocol_error of string

  let write oc payload =
    let len = String.length payload in
    if len > max_frame then
      raise
        (Protocol_error
           (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
              max_frame));
    let hdr = Bytes.create 4 in
    Bytes.set hdr 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set hdr 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set hdr 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set hdr 3 (Char.chr (len land 0xff));
    output_bytes oc hdr;
    output_string oc payload;
    flush oc

  let read ic =
    match input_char ic with
    | exception End_of_file -> None (* clean EOF at a frame boundary *)
    | c0 ->
      let next () =
        match input_char ic with
        | c -> Char.code c
        | exception End_of_file ->
          raise (Protocol_error "truncated frame length")
      in
      (* bind in sequence: operand order inside one expression would be
         unspecified, and these reads must happen big-endian first *)
      let b1 = next () in
      let b2 = next () in
      let b3 = next () in
      let len = (Char.code c0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
      if len > max_frame then
        raise
          (Protocol_error
             (Printf.sprintf "frame length %d exceeds the %d-byte limit" len
                max_frame));
      let buf = Bytes.create len in
      (match really_input ic buf 0 len with
      | () -> ()
      | exception End_of_file ->
        raise (Protocol_error "truncated frame payload"));
      Some (Bytes.to_string buf)
end

(* --- typed requests --- *)

type request =
  | Compile of {
      id : Metrics.json;
      source : string;
      entry : string;
      backend : string;
      args : int list option;
      config : Config.t option;
    }
  | Compare of {
      id : Metrics.json;
      source : string;
      entry : string;
      backends : string list option;
      vectors : int list list;
      config : Config.t option;
    }
  | Check of { id : Metrics.json; source : string; dialect : string }
  | Stats of { id : Metrics.json }
  | Shutdown of { id : Metrics.json }

let request_id = function
  | Compile { id; _ } | Compare { id; _ } | Check { id; _ } | Stats { id }
  | Shutdown { id } ->
    id

let op_name = function
  | Compile _ -> "compile"
  | Compare _ -> "compare"
  | Check _ -> "check"
  | Stats _ -> "stats"
  | Shutdown _ -> "shutdown"

let error_response ?(id = Metrics.Null) ~kind message =
  Metrics.Obj
    [ ("id", id);
      ("ok", Metrics.Bool false);
      ( "error",
        Metrics.Obj
          [ ("kind", Metrics.String kind);
            ("message", Metrics.String message) ] ) ]

let parse_request (j : Metrics.json) : (request, string * Metrics.json) result
    =
  let id = Option.value (Json.member "id" j) ~default:Metrics.Null in
  let err msg = Error (msg, id) in
  let str_field ?default name =
    match Json.member name j with
    | Some (Metrics.String s) -> Ok s
    | Some _ -> err (Printf.sprintf "%S must be a string" name)
    | None -> (
      match default with
      | Some d -> Ok d
      | None -> err (Printf.sprintf "missing %S" name))
  in
  let int_list name = function
    | Metrics.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Metrics.Int i :: rest -> go (i :: acc) rest
        | _ -> err (Printf.sprintf "%S must contain integers" name)
      in
      go [] items
    | _ -> err (Printf.sprintf "%S must be a list" name)
  in
  let ( let* ) = Result.bind in
  (* per-request synthesis configuration: an optional "config" object
     parsed by Config.of_json, so sweeps can ride the Domain pool with a
     distinct design point per request *)
  let config () =
    match Json.member "config" j with
    | None | Some Metrics.Null -> Ok None
    | Some v -> (
      match Config.of_json v with
      | Ok c -> Ok (Some c)
      | Error msg -> err msg)
  in
  match Json.member "op" j with
  | None -> err "missing \"op\""
  | Some (Metrics.String op) -> (
    match op with
    | "compile" ->
      let* source = str_field "source" in
      let* entry = str_field ~default:"main" "entry" in
      let* backend = str_field ~default:"bachc" "backend" in
      let* args =
        match Json.member "args" j with
        | None | Some Metrics.Null -> Ok None
        | Some v -> Result.map Option.some (int_list "args" v)
      in
      let* config = config () in
      Ok (Compile { id; source; entry; backend; args; config })
    | "compare" ->
      let* source = str_field "source" in
      let* entry = str_field ~default:"main" "entry" in
      let* backends =
        match Json.member "backends" j with
        | None | Some Metrics.Null -> Ok None
        | Some (Metrics.List items) ->
          let rec go acc = function
            | [] -> Ok (Some (List.rev acc))
            | Metrics.String s :: rest -> go (s :: acc) rest
            | _ -> err "\"backends\" must contain strings"
          in
          go [] items
        | Some _ -> err "\"backends\" must be a list"
      in
      let* vectors =
        match Json.member "args" j with
        | None | Some Metrics.Null | Some (Metrics.List []) -> Ok []
        | Some (Metrics.List (Metrics.List _ :: _ as vecs)) ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | v :: rest ->
              let* ints = int_list "args" v in
              go (ints :: acc) rest
          in
          go [] vecs
        | Some (Metrics.List _ as flat) ->
          (* a single flat vector is accepted as one-vector shorthand *)
          Result.map (fun v -> [ v ]) (int_list "args" flat)
        | Some _ -> err "\"args\" must be a list of integer vectors"
      in
      let* config = config () in
      Ok (Compare { id; source; entry; backends; vectors; config })
    | "check" ->
      let* source = str_field "source" in
      let* dialect = str_field ~default:"handelc" "dialect" in
      Ok (Check { id; source; dialect })
    | "stats" -> Ok (Stats { id })
    | "shutdown" -> Ok (Shutdown { id })
    | op -> err (Printf.sprintf "unknown op %S" op))
  | Some _ -> err "\"op\" must be a string"

(* --- handlers --- *)

let kind_of_error = function
  | Driver.Frontend_error _ -> "frontend-error"
  | Driver.No_c_frontend _ -> "no-c-frontend"
  | Driver.Dialect_reject _ -> "dialect-reject"
  | Driver.Backend_error _ -> "backend-error"
  | Driver.Verification_error _ -> "verification-error"
  | Driver.Constraint_infeasible _ -> "constraint-infeasible"

let driver_error ~id e =
  error_response ~id ~kind:(kind_of_error e) (Driver.render_error e)

let session_counter s key =
  match Metrics.find (Driver.metrics s) key with
  | Some (Metrics.Int n) -> n
  | _ -> 0

(* One session per (source, entry) per worker domain: the frontend runs
   once per distinct program per domain, designs are shared across
   domains through the process-wide content-hash cache. *)
let session_for sessions source entry =
  let key = Digest.to_hex (Digest.string source) ^ "|" ^ entry in
  match Hashtbl.find_opt sessions key with
  | Some s -> s
  | None ->
    if Hashtbl.length sessions > 128 then Hashtbl.reset sessions;
    let s = Driver.create ~entry source in
    Hashtbl.add sessions key s;
    s

(* the response reports the cycle count a clocked run reached *)
let run_design ?ctx ?sim design args =
  match Driver.run ?ctx ?sim design args with
  | Ok r -> `Ok r
  | Error (Driver.Cycles { cycles; state = _ }) -> `Timeout (Some cycles)
  | Error (Driver.Tokens _ | Driver.Limit _) -> `Timeout None

let handle_compile sessions ~ctx ~id ~source ~entry ~backend ~args ~config =
  match Registry.find backend with
  | None ->
    error_response ~id ~kind:"protocol"
      (Printf.sprintf "unknown backend %S; registered: %s" backend
         (Registry.catalog ()))
  | Some b -> (
    let s = session_for sessions source entry in
    let front0 = session_counter s "driver.cache.design_hits"
    and store0 = session_counter s "driver.cache.design_store_hits" in
    match Driver.compile ~ctx ?config s b with
    | Error e -> driver_error ~id e
    | Ok design -> (
      let cached =
        if session_counter s "driver.cache.design_hits" > front0 then "front"
        else if session_counter s "driver.cache.design_store_hits" > store0
        then "store"
        else "miss"
      in
      let base =
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("backend", Metrics.String (Registry.name b));
          ("cached", Metrics.String cached) ]
        @
        (* echo the config digest so sweep clients can correlate cache
           provenance with their design points *)
        match config with
        | Some c -> [ ("config_digest", Metrics.String (Config.digest c)) ]
        | None -> []
      in
      match args with
      | None -> Metrics.Obj (base @ [ ("status", Metrics.String "compiled") ])
      | Some args -> (
        match
          run_design ~ctx
            ?sim:(Option.map (fun c -> c.Config.sim) config)
            design args
        with
        | `Timeout cycles ->
          Metrics.Obj
            (base
            @ [ ("status", Metrics.String "timeout") ]
            @
            match cycles with
            | Some c -> [ ("cycles", Metrics.Int c) ]
            | None -> [])
        | `Ok r ->
          (* every served design is checked against the interpreter
             oracle on the request's vector *)
          let observed = Option.map Bitvec.to_int r.Design.result in
          let oracle =
            match Driver.reference ~ctx s ~args with
            | Ok v -> `Expected v
            | Error e -> `Failed (Driver.render_error e)
          in
          Metrics.Obj
            (base
            @ [ ("status", Metrics.String "ok");
                ( "result",
                  match observed with
                  | Some v -> Metrics.Int v
                  | None -> Metrics.Null ) ]
            @ (match r.Design.cycles with
              | Some c -> [ ("cycles", Metrics.Int c) ]
              | None -> [])
            @ (match r.Design.time_units with
              | Some t -> [ ("time_units", Metrics.Fixed (1, t)) ]
              | None -> [])
            @
            match oracle with
            | `Expected v ->
              [ ("matches_reference", Metrics.Bool (observed = Some v)) ]
            | `Failed msg -> [ ("reference_error", Metrics.String msg) ]))))

let handle_compare sessions ~ctx ~id ~source ~entry ~backends ~vectors
    ~config =
  let resolve names =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Registry.find (String.trim n) with
        | Some b -> go (b :: acc) rest
        | None ->
          Error
            (Printf.sprintf "unknown backend %S; registered: %s" n
               (Registry.catalog ())))
    in
    go [] names
  in
  let backends =
    match backends with
    | None -> Ok (Registry.all ())
    | Some names -> resolve names
  in
  match backends with
  | Error msg -> error_response ~id ~kind:"protocol" msg
  | Ok backends -> (
    let s = session_for sessions source entry in
    match Driver.program ~ctx s with
    | Error e -> driver_error ~id e
    | Ok _ ->
      let expected =
        List.map
          (fun args ->
            match Driver.reference ~ctx s ~args with
            | Ok v -> Some v
            | Error _ -> None)
          vectors
      in
      let mismatch = ref false in
      let rows =
        List.map
          (fun (b, verdict) ->
            let name = Registry.name b in
            match verdict with
            | Error e ->
              Metrics.Obj
                [ ("backend", Metrics.String name);
                  ("status", Metrics.String (kind_of_error e));
                  ("detail", Metrics.String (Driver.render_error e)) ]
            | Ok design ->
              let outcomes =
                List.map (fun args -> run_design ~ctx design args) vectors
              in
              let results =
                List.map
                  (function
                    | `Ok r -> Option.map Bitvec.to_int r.Design.result
                    | `Timeout _ -> None)
                  outcomes
              in
              let agrees =
                vectors <> []
                && List.for_all2
                     (fun observed exp -> exp <> None && observed = exp)
                     results expected
              in
              if vectors <> [] && not agrees then mismatch := true;
              Metrics.Obj
                ([ ("backend", Metrics.String name);
                   ("status", Metrics.String "ok");
                   ( "results",
                     Metrics.List
                       (List.map
                          (function
                            | Some v -> Metrics.Int v
                            | None -> Metrics.Null)
                          results) ) ]
                @
                if vectors = [] then []
                else [ ("agrees", Metrics.Bool agrees) ]))
          (Driver.compile_all ~ctx ?config ~backends s)
      in
      Metrics.Obj
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("entry", Metrics.String entry);
          ("vectors", Metrics.Int (List.length vectors));
          ("backends", Metrics.List rows);
          ("mismatch", Metrics.Bool !mismatch) ])

let handle_check sessions ~ctx ~id ~source ~dialect =
  let resolved =
    match Registry.find dialect with
    | Some b -> Some (Registry.dialect b)
    | None -> Dialect.find dialect
  in
  match resolved with
  | None ->
    error_response ~id ~kind:"protocol"
      (Printf.sprintf "unknown dialect %S (try handelc, specc, bachc)"
         dialect)
  | Some d -> (
    let s = session_for sessions source "main" in
    match Driver.program ~ctx s with
    | Error e -> driver_error ~id e
    | Ok program ->
      let diags =
        Span.span ctx "conc-check"
          ~attrs:[ ("dialect", Metrics.String d.Dialect.name) ]
          (fun _ -> Conc_check.check_program ~dialect:d program)
      in
      let errors = Conc_check.errors diags
      and warnings = Conc_check.warnings diags in
      Metrics.Obj
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("dialect", Metrics.String d.Dialect.name);
          ("errors", Metrics.Int (List.length errors));
          ("warnings", Metrics.Int (List.length warnings));
          ( "diagnostics",
            Metrics.List
              (List.map
                 (fun diag ->
                   Metrics.String (Conc_check.render ?file:None diag))
                 diags) ) ])

(* --- the Domain pool --- *)

module Pool = struct
  (* A queued job may carry a live trace: the request root span plus the
     queue-wait span opened at submit time (on the accept loop's side of
     the Domain boundary) and closed by the worker that dequeues it. *)
  type job = {
    req : request;
    respond : Metrics.json -> unit;
    jtrace : (Span.trace * Span.ctx * Span.ctx) option;
        (* (trace, request ctx, queue-wait ctx) *)
  }

  type t = {
    lock : Mutex.t;
    not_empty : Condition.t;
    not_full : Condition.t;
    idle : Condition.t;
    queue : job Queue.t;
    capacity : int;
    max_batch : int;
    n_domains : int;
    tracing : bool;
    on_trace : (pid:int -> tid:int -> Span.trace -> unit) option;
    mutable active : int;
    mutable total_jobs : int;
    mutable stopping : bool;
    mutable joined : bool;
    mutable workers : unit Domain.t list;
    pmetrics : Metrics.t;
    mlock : Mutex.t;
  }

  let domains t = t.n_domains

  let metrics t = t.pmetrics

  let snapshot_metrics t =
    Mutex.lock t.mlock;
    let pairs = Metrics.pairs t.pmetrics in
    Mutex.unlock t.mlock;
    pairs

  let record t req ok dt_ms =
    let op = op_name req in
    Mutex.lock t.mlock;
    Metrics.incr t.pmetrics "serve.requests.total";
    Metrics.incr t.pmetrics (Printf.sprintf "serve.requests.%s" op);
    if not ok then Metrics.incr t.pmetrics "serve.errors";
    Metrics.observe_ms t.pmetrics
      (Printf.sprintf "serve.latency.%s_ms" op)
      dt_ms;
    Mutex.unlock t.mlock

  let stats t =
    Mutex.lock t.lock;
    let queued = Queue.length t.queue
    and active = t.active
    and total = t.total_jobs in
    Mutex.unlock t.lock;
    [ ("domains", t.n_domains);
      ("queue_capacity", t.capacity);
      ("queued", queued);
      ("queue_depth", queued);
      ("active", active);
      ("total_jobs", total) ]

  let response_ok = function
    | Metrics.Obj members -> (
      match List.assoc_opt "ok" members with
      | Some (Metrics.Bool b) -> b
      | _ -> false)
    | _ -> false

  let dispatch t sessions ~ctx req =
    match req with
    | Compile { id; source; entry; backend; args; config } ->
      handle_compile sessions ~ctx ~id ~source ~entry ~backend ~args ~config
    | Compare { id; source; entry; backends; vectors; config } ->
      handle_compare sessions ~ctx ~id ~source ~entry ~backends ~vectors
        ~config
    | Check { id; source; dialect } ->
      handle_check sessions ~ctx ~id ~source ~dialect
    | Stats { id } ->
      let m = Metrics.create () in
      Metrics.set_string m "schema" "chls.metrics/3";
      List.iter
        (fun (k, v) -> Metrics.set_int m ("serve.pool." ^ k) v)
        (stats t);
      Metrics.set_int m "serve.trace.flight_capacity"
        (Span.Flight.capacity ());
      Metrics.set_int m "serve.trace.flight_occupancy"
        (Span.Flight.occupancy ());
      Metrics.set_int m "serve.trace.flight_recorded"
        (Span.Flight.recorded ());
      Metrics.set_int m "serve.trace.flight_dropped"
        (Span.Flight.dropped ());
      List.iter
        (fun (k, v) -> Metrics.set m k v)
        (snapshot_metrics t);
      List.iter
        (fun (k, v) -> Metrics.set_int m k v)
        (Driver.cache_metrics ());
      List.iter
        (fun (k, v) -> Metrics.set_fixed m k ~decimals:1 v)
        (Driver.cache_hit_rates ());
      (match Metrics.to_json m with
      | Metrics.Obj members ->
        Metrics.Obj
          (("id", id) :: ("ok", Metrics.Bool true) :: members)
      | other -> other)
    | Shutdown { id } ->
      Metrics.Obj
        [ ("id", id);
          ("ok", Metrics.Bool true);
          ("shutting_down", Metrics.Bool true) ]

  (* The trace id rides next to the caller's own id; a failing answer
     additionally carries the flight recorder's last-N finished spans,
     so every dialect-reject/verification-error/internal response is
     its own crash report. *)
  let decorate_response tr resp =
    match resp with
    | Metrics.Obj members ->
      let tid = ("trace_id", Metrics.String (Span.trace_id tr)) in
      let rec ins = function
        | (("id", _) as m) :: rest -> m :: tid :: rest
        | m :: rest -> m :: ins rest
        | [] -> [ tid ]
      in
      let members = ins members in
      Metrics.Obj
        (if response_ok resp then members
         else members @ [ ("flight_recorder", Span.Flight.dump ()) ])
    | other -> other

  let handle_traced t sessions ?jtrace ?(pid = 0) ?(tid = 0) req =
    let sessions =
      match sessions with Some s -> s | None -> Hashtbl.create 4
    in
    let t0 = Unix.gettimeofday () in
    let id = request_id req in
    let jtrace =
      match jtrace with
      | Some _ as tr -> tr
      | None ->
        if t.tracing && Span.enabled () then begin
          let tr, ctx = Span.start ~kind:"request" () in
          Span.add_attr ctx "op" (Metrics.String (op_name req));
          Some (tr, ctx)
        end
        else None
    in
    let ctx = match jtrace with Some (_, c) -> c | None -> Span.null in
    let resp =
      try dispatch t sessions ~ctx req
      with e ->
        (* a handler bug must not kill the worker domain *)
        error_response ~id ~kind:"internal" (Printexc.to_string e)
    in
    record t req (response_ok resp) ((Unix.gettimeofday () -. t0) *. 1000.);
    match jtrace with
    | None -> resp
    | Some (tr, _) ->
      Span.finish tr;
      let resp = decorate_response tr resp in
      (match t.on_trace with
      | Some f -> ( try f ~pid ~tid tr with _ -> ())
      | None -> ());
      resp

  let handle t sessions req = handle_traced t sessions req

  (* Drain up to max_batch queued jobs in one lock acquisition, grouped
     by source so a batch over one program walks its session once; the
     per-domain session table then memoizes across batches too. *)
  let take_batch t =
    let rec drain acc k =
      if k = 0 || Queue.is_empty t.queue then List.rev acc
      else drain (Queue.pop t.queue :: acc) (k - 1)
    in
    let batch = drain [] t.max_batch in
    let source_key job =
      match job.req with
      | Compile { source; entry; _ } | Compare { source; entry; _ } ->
        source ^ "|" ^ entry
      | Check { source; _ } -> source
      | Stats _ | Shutdown _ -> ""
    in
    List.stable_sort
      (fun a b -> compare (source_key a) (source_key b))
      batch

  let rec worker_loop t ~widx sessions =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.lock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping and nothing left *)
      Mutex.unlock t.lock
    end
    else begin
      let batch = take_batch t in
      t.active <- t.active + List.length batch;
      Condition.broadcast t.not_full;
      Mutex.unlock t.lock;
      List.iter
        (fun job ->
          (* the queue-wait span ends the instant a worker owns the job *)
          let jtrace =
            match job.jtrace with
            | None -> None
            | Some (tr, ctx, q) ->
              Span.exit q;
              Some (tr, ctx)
          in
          let resp =
            handle_traced t (Some sessions) ?jtrace ~pid:widx
              ~tid:(Domain.self () :> int)
              job.req
          in
          (try job.respond resp with _ -> ());
          Mutex.lock t.lock;
          t.active <- t.active - 1;
          if t.active = 0 && Queue.is_empty t.queue then
            Condition.broadcast t.idle;
          Mutex.unlock t.lock)
        batch;
      worker_loop t ~widx sessions
    end

  let create ?domains:n ?queue_capacity ?max_batch ?(tracing = true)
      ?on_trace () =
    let n_domains =
      max 1 (Option.value n ~default:(Domain.recommended_domain_count ()))
    in
    let capacity =
      max 1 (Option.value queue_capacity ~default:(4 * n_domains))
    in
    let max_batch = max 1 (Option.value max_batch ~default:16) in
    let t =
      { lock = Mutex.create ();
        not_empty = Condition.create ();
        not_full = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        capacity;
        max_batch;
        n_domains;
        tracing;
        on_trace;
        active = 0;
        total_jobs = 0;
        stopping = false;
        joined = false;
        workers = [];
        pmetrics = Metrics.create ();
        mlock = Mutex.create () }
    in
    t.workers <-
      List.init n_domains (fun widx ->
          Domain.spawn (fun () -> worker_loop t ~widx (Hashtbl.create 16)));
    t

  let submit t req ~respond =
    Mutex.lock t.lock;
    while Queue.length t.queue >= t.capacity && not t.stopping do
      Condition.wait t.not_full t.lock
    done;
    if t.stopping then begin
      Mutex.unlock t.lock;
      try
        respond
          (error_response ~id:(request_id req) ~kind:"protocol"
             "server is shutting down")
      with _ -> ()
    end
    else begin
      let jtrace =
        if t.tracing && Span.enabled () then begin
          let tr, ctx = Span.start ~kind:"request" () in
          Span.add_attr ctx "op" (Metrics.String (op_name req));
          Some (tr, ctx, Span.enter ctx "queue-wait")
        end
        else None
      in
      Queue.push { req; respond; jtrace } t.queue;
      t.total_jobs <- t.total_jobs + 1;
      Condition.signal t.not_empty;
      Mutex.unlock t.lock
    end

  let drain t =
    Mutex.lock t.lock;
    while t.active > 0 || not (Queue.is_empty t.queue) do
      Condition.wait t.idle t.lock
    done;
    Mutex.unlock t.lock

  let shutdown t =
    drain t;
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    let join_now = not t.joined in
    t.joined <- true;
    Mutex.unlock t.lock;
    if join_now then begin
      List.iter Domain.join t.workers;
      t.workers <- []
    end
end

(* --- the daemon --- *)

let run ?domains ?queue_capacity ?max_batch ?cache_dir ?cache_max_bytes
    ?trace_json ?(log = fun _ -> ()) ~socket () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception _ -> ());
  let cache_attached =
    match cache_dir with
    | None -> Ok ()
    | Some dir ->
      Result.map ignore
        (Driver.attach_disk_cache ?max_bytes:cache_max_bytes ~dir ())
  in
  match cache_attached with
  | Error msg -> Error msg
  | Ok () -> (
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink socket with _ -> ());
    match
      Unix.bind fd (Unix.ADDR_UNIX socket);
      Unix.listen fd 16
    with
    | exception e ->
      (try Unix.close fd with _ -> ());
      Error
        (Printf.sprintf "cannot bind %s: %s" socket (Printexc.to_string e))
    | () ->
      let sink = Option.map (fun _ -> Span.Chrome.create ()) trace_json in
      let on_trace =
        Option.map
          (fun sink ~pid ~tid tr -> Span.Chrome.add sink ~pid ~tid tr)
          sink
      in
      let pool =
        Pool.create ?domains ?queue_capacity ?max_batch ?on_trace ()
      in
      let stop = ref false in
      let on_signal _ = stop := true in
      let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
      let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
      log
        (Printf.sprintf
           "chlsc serve: listening on %s (%d domain(s), queue %s%s)" socket
           (Pool.domains pool)
           (match queue_capacity with
           | Some c -> string_of_int c
           | None -> string_of_int (4 * Pool.domains pool))
           (match cache_dir with
           | Some d -> Printf.sprintf ", cache %s" d
           | None -> ""));
      let handle_connection cfd =
        let ic = Unix.in_channel_of_descr cfd in
        let oc = Unix.out_channel_of_descr cfd in
        let wlock = Mutex.create () in
        let send json =
          Mutex.lock wlock;
          (try Frame.write oc (Metrics.render_compact json) with _ -> ());
          Mutex.unlock wlock
        in
        let rec loop () =
          if !stop then ()
          else
            match Frame.read ic with
            | None -> ()
            | exception Frame.Protocol_error msg ->
              send (error_response ~kind:"protocol" msg)
            | exception _ -> ()
            | Some payload -> (
              match Json.parse payload with
              | Error msg ->
                send (error_response ~kind:"protocol" msg);
                loop ()
              | Ok j -> (
                match parse_request j with
                | Error (msg, id) ->
                  send (error_response ~id ~kind:"protocol" msg);
                  loop ()
                | Ok (Shutdown { id }) ->
                  (* answer only after in-flight work has responded, so
                     a pipelined client sees every reply before the
                     goodbye *)
                  Pool.drain pool;
                  send
                    (Metrics.Obj
                       [ ("id", id);
                         ("ok", Metrics.Bool true);
                         ("shutting_down", Metrics.Bool true) ]);
                  stop := true
                | Ok req ->
                  Pool.submit pool req ~respond:send;
                  loop ()))
        in
        loop ();
        (* pending responses still target this socket *)
        Pool.drain pool;
        (try flush oc with _ -> ());
        try Unix.close cfd with _ -> ()
      in
      let rec accept_loop () =
        if !stop then ()
        else begin
          (match Unix.select [ fd ] [] [] 0.25 with
          | [], _, _ -> ()
          | _ -> (
            match Unix.accept fd with
            | cfd, _ -> handle_connection cfd
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ();
      Pool.shutdown pool;
      (try Unix.close fd with _ -> ());
      (try Unix.unlink socket with _ -> ());
      Sys.set_signal Sys.sigint prev_int;
      Sys.set_signal Sys.sigterm prev_term;
      (match (trace_json, sink) with
      | Some path, Some sink ->
        (try
           Span.Chrome.write_file sink path;
           log
             (Printf.sprintf "chlsc serve: wrote %d trace event(s) to %s"
                (Span.Chrome.events sink) path)
         with e ->
           log
             (Printf.sprintf "chlsc serve: cannot write trace %s: %s" path
                (Printexc.to_string e)))
      | _ -> ());
      log "chlsc serve: shut down cleanly";
      Ok ())

(* --- client --- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect ?timeout_ms ~socket () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match timeout_ms with
    | Some ms when ms > 0 ->
      let s = float_of_int ms /. 1000. in
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s with _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s with _ -> ())
    | _ -> ());
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      Ok
        { fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd }
    | exception e ->
      (try Unix.close fd with _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket
           (Printexc.to_string e))

  (* SO_RCVTIMEO surfaces through channel reads as EAGAIN-flavoured
     failures; name them for what they are so a wedged daemon produces
     "timed out", not an errno spelling. *)
  let is_timeout = function
    | Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    | Sys_blocked_io ->
      true
    | Sys_error m ->
      let has needle =
        let nl = String.length needle and ml = String.length m in
        let rec go i =
          i + nl <= ml && (String.sub m i nl = needle || go (i + 1))
        in
        go 0
      in
      has "emporarily unavailable" || has "imed out"
    | _ -> false

  let rpc t payload =
    match
      Frame.write t.oc payload;
      Frame.read t.ic
    with
    | Some resp -> Ok resp
    | None -> Error "connection closed by server"
    | exception Frame.Protocol_error msg -> Error msg
    | exception e when is_timeout e ->
      Error "timed out waiting for a response"
    | exception e -> Error (Printexc.to_string e)

  let close t = try Unix.close t.fd with _ -> ()
end
