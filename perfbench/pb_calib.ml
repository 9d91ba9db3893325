(* Host-speed calibration.

   On a shared host the CPU's speed swings by a factor of up to two over
   minutes, far more than the changes the benchmark must resolve, and a
   run's timings move with it.  [speed ()] times a fixed reference kernel
   that uses none of the repo's code (string hashing, sorting and map
   inserts: the allocation-heavy mix the compiler's own loops do) in a
   fresh process, so the benchmark's heap cannot disturb it, and returns
   [reference_ms / measured_ms]: about 1 on the reference host, below 1
   while the host runs slower.

   Every timed interval is multiplied by the mean of the speeds measured
   right before and right after it, which expresses it in reference-host
   time.  The system's own cost is not scaled away: the kernel never runs
   the system's code, so a slower compiler stays slower by the same
   factor.  Raw times go to stderr next to the factors. *)

module IntMap = Map.Make (Int)

let kernel () =
  let h = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 39_999 do
    Hashtbl.replace h (string_of_int ((i * 7919) land 0xffff)) i;
    match Hashtbl.find_opt h (string_of_int (i land 0xfff)) with
    | Some v -> acc := !acc + v
    | None -> incr acc
  done;
  let l = List.sort compare (List.init 40_000 (fun i -> (i * 48271) land 0xffff)) in
  let m = List.fold_left (fun m x -> IntMap.add x (x + !acc) m) IntMap.empty l in
  ignore (Sys.opaque_identity (IntMap.cardinal m))

(* The kernel's time on the reference host, a 2-core x86 box. *)
let reference_ms = 45.

(* The [--calibrate] mode of the benchmark executable: the median of five
   kernel runs, in ms, on stdout. *)
let kernel_ms () =
  Pb_util.median
    (List.init 5 (fun _ ->
         let t0 = Pb_util.now () in
         kernel ();
         Pb_util.ms_since t0))

let speed () =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--calibrate" |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "calibration process failed");
  reference_ms /. float_of_string (String.trim out)
