(* Shared helpers: clocks, order statistics, process memory, result
   rendering. *)

let now () = Unix.gettimeofday ()

let ms_since t0 = (now () -. t0) *. 1000.

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, q in [0, 100]; 0. on an empty sample. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

let sum xs = List.fold_left ( +. ) 0. xs

(* Geometric mean of the positive values; 0. when there are none. *)
let geomean xs =
  let pos = List.filter (fun x -> x > 0.) xs in
  match pos with
  | [] -> 0.
  | _ ->
    exp (sum (List.map log pos) /. float_of_int (List.length pos))

(* A field of /proc/<pid>/status in kB (VmHWM is the peak resident set). *)
let proc_status_kb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        let pl = String.length prefix in
        if String.length line > pl && String.sub line 0 pl = prefix then
          Scanf.sscanf
            (String.sub line pl (String.length line - pl))
            " %d" (fun kb -> Some kb)
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

let peak_rss_mb pid =
  match proc_status_kb pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

(* One run's verdict and its named metrics, in the order they are
   printed. *)
type result = {
  attempted : int;
  failed : int;
  problems : string list;  (* every correctness failure, for stderr *)
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let render_result r =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
    else Printf.sprintf "%.17g" v
  in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0 && r.problems = [])
    r.attempted r.failed
    (String.concat ", " metrics)

(* Gc.quick_stat deltas, reported per workload. *)
type gc_delta = { minor : float; major : float; promoted_mwords : float }

let gc_snapshot () = Gc.quick_stat ()

let gc_delta (a : Gc.stat) (b : Gc.stat) =
  { minor = float_of_int (b.Gc.minor_collections - a.Gc.minor_collections);
    major = float_of_int (b.Gc.major_collections - a.Gc.major_collections);
    promoted_mwords = (b.Gc.promoted_words -. a.Gc.promoted_words) /. 1e6 }

let gc_add a b =
  { minor = a.minor +. b.minor; major = a.major +. b.major;
    promoted_mwords = a.promoted_mwords +. b.promoted_mwords }

let gc_zero = { minor = 0.; major = 0.; promoted_mwords = 0. }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Sys.rmdir path with Sys_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()
