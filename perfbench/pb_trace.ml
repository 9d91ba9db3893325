(* Span analysis for the traced run.

   Spans come from two places: the benchmark's own spans around its calls
   into the layers (recorded with the library's Span module, kept in
   memory until the run ends), and, for the wire probe, the daemons'
   existing --trace-json files.  Both reduce to flat (trace, span, parent, kind,
   duration) rows, from which this module derives per-layer totals, self
   times (a span minus its direct children) and coverage (the share of
   each operation's root span covered by its direct children). *)

type row = {
  trace : string;
  id : int;
  parent : int option;
  kind : string;
  dur_ms : float;
  attrs : (string * Metrics.json) list;
}

(* The layer each span kind is attributed to. *)
let layer_of_kind kind =
  if String.length kind > 5 && String.sub kind 0 5 = "pass:" then "passes"
  else
    match kind with
    | "frontend" -> "front"
    | "dialect-check" -> "dialect"
    | "backend" -> "backend"
    | "simulate" -> "sim"
    | "area" -> "area"
    | "oracle" -> "oracle"
    | "lower" | "modulo" | "bitwidth" -> "analyze"
    | "queue-wait" -> "queue"
    | "op" | "request" -> "root"
    | "list-sched" -> "sched"
    | "rtl" -> "rtl"
    | "probe" -> "probe"
    | other -> other

(* Layers reported as self.<layer>_ms, in order: the ones every
   workload's operations pass through. *)
let self_layers =
  [ "root"; "front"; "dialect"; "backend"; "passes"; "sim"; "oracle" ]

type acc = {
  total : (string, float) Hashtbl.t;  (* span kind -> summed duration *)
  count : (string, int) Hashtbl.t;
  self : (string, float) Hashtbl.t;  (* layer -> summed self time *)
  by_backend : (string, float) Hashtbl.t;  (* "backend" spans by attr *)
  durs : (string, float list) Hashtbl.t;  (* kind -> durations *)
  mutable root_ms : float;
  mutable covered_ms : float;
}

let create () =
  { total = Hashtbl.create 32; count = Hashtbl.create 32;
    self = Hashtbl.create 16; by_backend = Hashtbl.create 16;
    durs = Hashtbl.create 8; root_ms = 0.; covered_ms = 0. }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

let total acc kind = Option.value (Hashtbl.find_opt acc.total kind) ~default:0.
let count acc kind = Option.value (Hashtbl.find_opt acc.count kind) ~default:0
let self acc layer = Option.value (Hashtbl.find_opt acc.self layer) ~default:0.
let durs acc kind = Option.value (Hashtbl.find_opt acc.durs kind) ~default:[]

let by_backend acc name =
  Option.value (Hashtbl.find_opt acc.by_backend name) ~default:0.

(* Kinds whose individual durations are kept for percentiles. *)
let kept_kinds = [ "queue-wait"; "request" ]

(* Fold the rows of one trace (all sharing [trace]) into the accumulator.
   Root rows ([parent = None]) of kind "op"/"request" count toward
   coverage; "probe" roots are side measurements and do not. *)
let add_trace acc rows =
  let probe = List.exists (fun r -> r.parent = None && r.kind = "probe") rows in
  let children = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match r.parent with
      | Some p -> bump children p r.dur_ms
      | None -> ())
    rows;
  List.iter
    (fun r ->
      bump acc.total r.kind r.dur_ms;
      Hashtbl.replace acc.count r.kind (1 + count acc r.kind);
      if List.mem r.kind kept_kinds then
        Hashtbl.replace acc.durs r.kind (r.dur_ms :: durs acc r.kind);
      let kids = Option.value (Hashtbl.find_opt children r.id) ~default:0. in
      if not probe then
        bump acc.self (layer_of_kind r.kind) (Float.max 0. (r.dur_ms -. kids));
      (if r.kind = "backend" then
         match List.assoc_opt "backend" r.attrs with
         | Some (Metrics.String b) -> bump acc.by_backend b r.dur_ms
         | _ -> ());
      if r.parent = None && (r.kind = "op" || r.kind = "request") then begin
        acc.root_ms <- acc.root_ms +. r.dur_ms;
        acc.covered_ms <- acc.covered_ms +. kids
      end)
    rows

let rows_of_span_trace tr =
  let id = Span.trace_id tr in
  List.map
    (fun (r : Span.record) ->
      { trace = id; id = r.Span.span_id; parent = r.Span.parent;
        kind = r.Span.kind; dur_ms = r.Span.dur_ms; attrs = r.Span.attrs })
    (Span.records tr)

let add_span_trace acc tr = add_trace acc (rows_of_span_trace tr)

let coverage_pct acc =
  if acc.root_ms > 0. then 100. *. acc.covered_ms /. acc.root_ms else 0.

(* Chrome trace_event rows of the daemon's --trace-json file, grouped by
   trace id; [keep] selects which traces count. *)
let rows_of_chrome json ~keep =
  let field k j = Serve.Json.member k j in
  let num = function
    | Some (Metrics.Int i) -> float_of_int i
    | Some (Metrics.Float f) | Some (Metrics.Fixed (_, f)) -> f
    | _ -> 0.
  in
  let events =
    match field "traceEvents" json with Some (Metrics.List l) -> l | _ -> []
  in
  let groups = Hashtbl.create 1024 in
  List.iter
    (fun ev ->
      let args =
        match field "args" ev with Some (Metrics.Obj a) -> a | _ -> []
      in
      match (List.assoc_opt "trace_id" args, List.assoc_opt "span_id" args) with
      | Some (Metrics.String t), Some (Metrics.Int id) when keep t ->
        let row =
          { trace = t; id;
            parent =
              (match List.assoc_opt "parent" args with
              | Some (Metrics.Int p) -> Some p
              | _ -> None);
            kind =
              (match field "name" ev with
              | Some (Metrics.String n) -> n
              | _ -> "?");
            dur_ms = num (field "dur" ev) /. 1000.;
            attrs = args }
        in
        Hashtbl.replace groups t
          (row :: Option.value (Hashtbl.find_opt groups t) ~default:[])
      | _ -> ())
    events;
  Hashtbl.fold (fun _ rows acc -> rows :: acc) groups []
