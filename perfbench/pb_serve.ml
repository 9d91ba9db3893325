(* The wire probe: the serve layers measured on an in-process workload's
   inputs, for its traced run.  The real `chlsc serve` daemon runs as a
   child process and this process drives it over the wire protocol.

   This process never creates a domain, and it starts the daemon with
   Unix.create_process (a spawn, not a bare fork), so nothing here can
   hit "fork after domains".  Every socket read and write is bounded by
   a deadline: a wedged daemon fails the run instead of hanging it.

   The daemon serves one connection at a time (its accept loop hands a
   connection to the pool until EOF), so the client pipelines over a
   single connection, [window] requests outstanding, and matches answers
   to requests by id.

   Three rounds, every answer checked against the benchmark's oracle:
   - cold: a daemon with default domains, a fresh --cache-dir and
     --trace-json gets every input once as a [compare] request (front
     misses, writes through to the disk store);
   - warm: the same daemon gets a seeded quarter of the inputs again
     (front-cache reads);
   - restart: a second daemon on the same --cache-dir gets that quarter
     once more (disk-store reads). *)

open Pb_util

let window = 32

let io_timeout = 30.

(* --- framing over a non-blocking socket -------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable out_off : int;
  inb : Buffer.t;
  chunk_buf : Bytes.t;
}

exception Dropped of string

let connect ~socket ~deadline =
  let rec attempt () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      Unix.set_nonblock fd;
      { fd; out = Buffer.create 65536; out_off = 0; inb = Buffer.create 65536;
        chunk_buf = Bytes.create 65536 }
    | exception (Unix.Unix_error _ as e) ->
      Unix.close fd;
      if now () > deadline then
        raise (Dropped ("cannot connect: " ^ Printexc.to_string e))
      else begin
        Unix.sleepf 0.005;
        attempt ()
      end
  in
  attempt ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let queue_frame c payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int n);
  Buffer.add_bytes c.out hdr;
  Buffer.add_string c.out payload

let pending c = Buffer.length c.out - c.out_off

let flush_some c =
  if pending c > 0 then begin
    match
      Unix.single_write_substring c.fd (Buffer.contents c.out) c.out_off
        (pending c)
    with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
      raise (Dropped ("write: " ^ Unix.error_message e))
  end

(* Read what is available and split off complete frames. *)
let read_frames c =
  (match Unix.read c.fd c.chunk_buf 0 (Bytes.length c.chunk_buf) with
  | 0 -> raise (Dropped "connection closed by the daemon")
  | n -> Buffer.add_subbytes c.inb c.chunk_buf 0 n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    raise (Dropped ("read: " ^ Unix.error_message e)));
  let s = Buffer.contents c.inb in
  let rec split off acc =
    if String.length s - off < 4 then (off, List.rev acc)
    else
      let n = Int32.to_int (String.get_int32_be s off) in
      if String.length s - off - 4 < n then (off, List.rev acc)
      else split (off + 4 + n) (String.sub s (off + 4) n :: acc)
  in
  let off, frames = split 0 [] in
  if off > 0 then begin
    Buffer.clear c.inb;
    Buffer.add_substring c.inb s off (String.length s - off)
  end;
  frames

(* Wait until readable (or writable while output is pending), at most
   [wait] seconds. *)
let wait_io c wait =
  let w = if pending c > 0 then [ c.fd ] else [] in
  match Unix.select [ c.fd ] w [] (Float.max 0. wait) with
  | r, wr, _ ->
    if wr <> [] then flush_some c;
    r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

let response_id json =
  match Serve.Json.member "id" json with
  | Some (Metrics.Int i) -> i
  | _ -> -1

(* One blocking request/response on a fresh connection. *)
let rpc ~socket payload =
  let deadline = now () +. io_timeout in
  let c = connect ~socket ~deadline in
  Fun.protect ~finally:(fun () -> close c) @@ fun () ->
  queue_frame c payload;
  let rec go () =
    if now () > deadline then raise (Dropped "rpc timed out");
    flush_some c;
    if wait_io c 0.5 then
      match read_frames c with
      | f :: _ -> (
        match Serve.Json.parse f with
        | Ok j -> j
        | Error m -> raise (Dropped ("bad response: " ^ m)))
      | [] -> go ()
    else go ()
  in
  go ()

(* Send [payloads] (id = array index + [base]), [window] outstanding, and
   call [on_response i json ~sent ~recv] for each answer.  Every request
   left unanswered [io_timeout] seconds after the last progress, or when
   the connection drops, goes to [on_lost]. *)
let drive c ~base (payloads : string array) ~on_response ~on_lost =
  let n = Array.length payloads in
  let next = ref 0 and inflight = ref 0 in
  let answered = Array.make n false and sent_at = Array.make n 0. in
  let last_progress = ref (now ()) in
  try
    while !next < n || !inflight > 0 do
      while !next < n && !inflight < window do
        queue_frame c payloads.(!next);
        sent_at.(!next) <- now ();
        incr inflight;
        incr next
      done;
      flush_some c;
      if wait_io c 0.05 then begin
        let frames = read_frames c in
        let tr = now () in
        if frames <> [] then last_progress := tr;
        List.iter
          (fun f ->
            match Serve.Json.parse f with
            | Error m -> on_lost (-1) ("unparseable response: " ^ m)
            | Ok j ->
              let i = response_id j - base in
              if i >= 0 && i < n && not answered.(i) then begin
                answered.(i) <- true;
                decr inflight;
                on_response i j ~sent:sent_at.(i) ~recv:tr
              end
              else on_lost i "response with an unknown id")
          frames
      end;
      if now () -. !last_progress > io_timeout then
        raise (Dropped "no response within the deadline")
    done
  with Dropped msg ->
    Array.iteri (fun i a -> if not a then on_lost i msg) answered

(* --- requests and their checks ----------------------------------------- *)

let oracle_memo : (string * int list, int option) Hashtbl.t = Hashtbl.create 64

(* The benchmark's own oracle for a request: the reference interpreter,
   run in this process before the request is sent. *)
let expected (p : Pb_gen.program) args =
  let key = (p.Pb_gen.source, args) in
  match Hashtbl.find_opt oracle_memo key with
  | Some v -> v
  | None ->
    let v =
      match Interp.run_int p.Pb_gen.source ~entry:p.Pb_gen.entry ~args with
      | v -> Some v
      | exception _ -> None
    in
    Hashtbl.replace oracle_memo key v;
    v

let backend_names () = List.map Registry.name (Registry.compiling ())

let to_wire ~id (p : Pb_gen.program) =
  let str s = Metrics.String s in
  let ints l = Metrics.List (List.map (fun i -> Metrics.Int i) l) in
  Metrics.render_compact
    (Metrics.Obj
       [ ("op", str "compare"); ("id", Metrics.Int id);
         ("source", str p.Pb_gen.source); ("entry", str p.Pb_gen.entry);
         ("backends", Metrics.List (List.map str (backend_names ())));
         ("args", Metrics.List (List.map ints p.Pb_gen.vectors)) ])

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.problems < 20 then t.problems <- msg :: t.problems

let str k j =
  match Serve.Json.member k j with Some (Metrics.String s) -> s | _ -> ""

(* A compare answer passes when it has a row for every compiling backend
   and each row is either a typed dialect rejection or a design whose
   results equal the oracle's on every vector.  Any other status
   (backend-error, constraint-infeasible, verification-error, timeout)
   and any error response is a failure. *)
let check t (p : Pb_gen.program) json =
  let exp = List.map (expected p) p.Pb_gen.vectors in
  match Serve.Json.member "ok" json with
  | Some (Metrics.Bool true) ->
    let rows =
      match Serve.Json.member "backends" json with
      | Some (Metrics.List l) -> l
      | _ -> []
    in
    let bad =
      List.filter_map
        (fun row ->
          match str "status" row with
          | "dialect-reject" -> None
          | "ok" ->
            let got =
              match Serve.Json.member "results" row with
              | Some (Metrics.List l) ->
                List.map (function Metrics.Int i -> Some i | _ -> None) l
              | _ -> []
            in
            if got = exp && not (List.mem None exp) then None
            else Some (str "backend" row ^ ": results differ from the oracle")
          | s -> Some (Printf.sprintf "%s: %s %s" (str "backend" row) s (str "detail" row)))
        rows
    in
    let bad =
      if List.length rows = List.length (backend_names ()) then bad
      else Printf.sprintf "%d rows for %d backends" (List.length rows)
             (List.length (backend_names ())) :: bad
    in
    if bad <> [] then
      fail t (Printf.sprintf "compare %s: %s" p.Pb_gen.name (String.concat "; " bad))
  | _ ->
    let e = Option.value (Serve.Json.member "error" json) ~default:Metrics.Null in
    let msg = str "message" e in
    fail t
      (Printf.sprintf "compare %s: error %s: %s" p.Pb_gen.name (str "kind" e)
         (if String.length msg > 160 then String.sub msg 0 160 else msg))

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

(* Daemons not yet reaped; [cleanup] kills and reaps them, so no child
   outlives the run even when it ends on an exception. *)
let live = ref []

let chlsc () =
  Filename.concat
    (Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin")
    "chlsc.exe"

let tmp_root = ".perfbench-tmp"

let counter = ref 0

(* Spawn a daemon with a fresh socket, wait for its first answer; returns
   it and the seconds from spawn to that answer.  Paths are relative to
   the working directory, which keeps the socket path short. *)
let spawn ~cache_dir ~trace_json =
  incr counter;
  let dir = Printf.sprintf "%s/%d-%d" tmp_root (Unix.getpid ()) !counter in
  (try Unix.mkdir tmp_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let socket = dir ^ "/s.sock" in
  let log = Unix.openfile (dir ^ "/daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [ chlsc (); "serve"; "--socket"; socket; "--cache-dir"; cache_dir;
      "--trace-json"; trace_json ]
  in
  let t0 = now () in
  let pid = Unix.create_process (List.hd args) (Array.of_list args) null null log in
  live := pid :: !live;
  Unix.close null;
  Unix.close log;
  let d = { pid; socket } in
  ignore (rpc ~socket {|{"op":"stats","id":0}|});
  (d, now () -. t0)

let stats d = rpc ~socket:d.socket {|{"op":"stats","id":0}|}

(* Ask for shutdown, wait for the exit (killing it past the deadline). *)
let stop d =
  (try ignore (rpc ~socket:d.socket {|{"op":"shutdown","id":0}|}) with Dropped _ -> ());
  let deadline = now () +. io_timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        false
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _, status -> status = Unix.WEXITED 0
  in
  let clean = wait () in
  live := List.filter (( <> ) d.pid) !live;
  clean

let cleanup () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := [];
  rm_rf tmp_root

(* --- the probe --------------------------------------------------------- *)

(* Add the daemon's --trace-json spans of the traces [keep] selects. *)
let read_trace t spans file ~keep =
  match Serve.Json.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Ok json -> List.iter (Pb_trace.add_trace spans) (Pb_trace.rows_of_chrome json ~keep)
  | Error m -> fail t ("daemon trace unreadable: " ^ m)

let rec find_path path json =
  match path with
  | [] -> Some json
  | k :: rest -> Option.bind (Serve.Json.member k json) (find_path rest)

let stat json path =
  match find_path path json with
  | Some (Metrics.Int i) -> float_of_int i
  | Some (Metrics.Float f) | Some (Metrics.Fixed (_, f)) -> f
  | _ -> 0.

type wire = {
  w_spans : Pb_trace.acc;  (* the daemons' spans of every passing request *)
  w_lat : float list;  (* client side, from send, every round *)
  w_mean_ms : float;  (* the daemons' own compare latency: exact mean *)
  w_pairs : int;  (* distinct (program, vector) pairs sent *)
  w_front_hits : float;
  w_front_misses : float;
  w_store_hits : float;
  w_store_puts : float;
  w_store_bytes : float;  (* store size after the last round *)
  w_ready_ms : float;  (* spawn to first answer, mean of the two daemons *)
  w_daemon_rss_mb : float;  (* the larger daemon VmHWM *)
  w_tally : tally;
}

let wire_probe ~seed (inputs : Pb_gen.program list) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = { attempted = 0; failed = 0; problems = [] } in
  let spans = Pb_trace.create () and lat = ref [] and ids = Hashtbl.create 1024 in
  let next_id = ref 1 in
  let round d (progs : Pb_gen.program array) =
    List.iter
      (fun (p : Pb_gen.program) -> List.iter (fun a -> ignore (expected p a)) p.Pb_gen.vectors)
      (Array.to_list progs);
    let base = !next_id in
    next_id := base + Array.length progs;
    let c = connect ~socket:d.socket ~deadline:(now () +. io_timeout) in
    drive c ~base
      (Array.mapi (fun i p -> to_wire ~id:(base + i) p) progs)
      ~on_response:(fun i j ~sent ~recv ->
        t.attempted <- t.attempted + 1;
        let f0 = t.failed in
        check t progs.(i) j;
        if t.failed = f0 then begin
          lat := ((recv -. sent) *. 1000.) :: !lat;
          Hashtbl.replace ids (str "trace_id" j) ()
        end)
      ~on_lost:(fun i m ->
        t.attempted <- t.attempted + 1;
        fail t (Printf.sprintf "request %d: %s" i m));
    close c
  in
  let finish d trace_file =
    let s = stats d in
    let rss = peak_rss_mb (string_of_int d.pid) in
    if not (stop d) then fail t "daemon did not shut down cleanly";
    read_trace t spans trace_file ~keep:(Hashtbl.mem ids);
    (s, rss)
  in
  let all = Array.of_list inputs in
  let replay =
    let a = Array.copy all in
    Pb_gen.shuffle (Pb_gen.rng ~seed "wire-replay") a;
    Array.sub a 0 (max 1 (Array.length a / 4))
  in
  let cache_dir = Printf.sprintf "%s/%d-cache" tmp_root (Unix.getpid ()) in
  let trace1 = Printf.sprintf "%s/%d-wire1.json" tmp_root (Unix.getpid ()) in
  let trace2 = Printf.sprintf "%s/%d-wire2.json" tmp_root (Unix.getpid ()) in
  let d1, ready1 = spawn ~cache_dir ~trace_json:trace1 in
  round d1 all;
  round d1 replay;
  let s1, rss1 = finish d1 trace1 in
  let d2, ready2 = spawn ~cache_dir ~trace_json:trace2 in
  round d2 replay;
  let s2, rss2 = finish d2 trace2 in
  let both path = stat s1 path +. stat s2 path in
  let pairs = Hashtbl.create 1024 in
  Array.iter
    (fun (p : Pb_gen.program) ->
      List.iter (fun a -> Hashtbl.replace pairs (p.Pb_gen.source, a) ()) p.Pb_gen.vectors)
    all;
  let hist k = both [ "serve"; "latency"; "compare_ms"; k ] in
  { w_spans = spans; w_lat = !lat;
    w_mean_ms = (if hist "count" > 0. then hist "sum_ms" /. hist "count" else 0.);
    w_pairs = Hashtbl.length pairs;
    w_front_hits = both [ "driver"; "cache"; "front_hits" ];
    w_front_misses = both [ "driver"; "cache"; "front_misses" ];
    w_store_hits = both [ "driver"; "store"; "hits" ];
    w_store_puts = both [ "driver"; "store"; "puts" ];
    w_store_bytes = stat s2 [ "driver"; "store"; "bytes" ];
    w_ready_ms = (ready1 +. ready2) *. 500.;
    w_daemon_rss_mb = Float.max rss1 rss2;
    w_tally = t }
