(** Dialect-matrix differential fuzzing driver.

    Generates dialect-gated random programs with {!Fuzzgen}, runs every
    C-compiling backend against the reference interpreter on fixed
    argument vectors, treats typed dialect rejections as expected matrix
    cells, and shrinks every disagreement (wrong result, crash, checker
    noise, pass-verification or engine divergence, generator artifact)
    into a minimal [.c] reproducer. *)

val entry : string
(** Entry point of every generated program: ["f"], taking
    [(int a, int b)]. *)

val default_arg_sets : int list list
(** The fixed argument vectors a sweep evaluates unless overridden. *)

type divergence = {
  div_dialect : string;  (** generating dialect's Table-1 name *)
  div_backend : string;  (** diverging backend, or ["reference"]/["checker"] *)
  div_class : string;  (** stable failure class, preserved while shrinking *)
  div_detail : string;
  div_index : int;  (** generation index under the seed *)
  div_args : int list;
  div_source : string;  (** the program as generated *)
  div_shrunk : string;  (** minimal class-preserving reproducer *)
}

type report = {
  rep_dialect : string;
  rep_backend : string;  (** the dialect's own backend *)
  rep_generated : int;
  rep_compiled : int;  (** successful backend compiles that also ran *)
  rep_rejected : int;  (** typed dialect rejections (expected) *)
  rep_agreed : int;  (** runs matching the reference result *)
  rep_divergences : divergence list;
  rep_constructs : (string * int) list;  (** summed construct census *)
  rep_wall_ms : float;
}

val run_dialect :
  ?arg_sets:int list list ->
  ?backends:Registry.t list ->
  ?verify_passes:bool ->
  ?verify_sim:bool ->
  Dialect.t -> seed:int -> n:int -> report
(** Fuzz [n] programs for one dialect.  [verify_passes] additionally
    interprets the IR after every pass on the same vectors
    ({!Passes.options.verify}); [verify_sim] compares the compiled and
    reference simulation engines on agreeing designs.  Deterministic
    for a fixed [(dialect, seed, n)]. *)

val default_dialects : unit -> Dialect.t list
(** Every Table-1 dialect whose backend compiles from C. *)

val run :
  ?arg_sets:int list list ->
  ?backends:Registry.t list ->
  ?verify_passes:bool ->
  ?verify_sim:bool ->
  ?dialects:Dialect.t list ->
  seed:int -> n:int -> unit -> report list
(** {!run_dialect} over [dialects] (default {!default_dialects}). *)

val metrics : report list -> Metrics.t
(** Per-dialect counters (generated/compiled/rejected/agreed/
    divergences, wall time, construct census) under [fuzz.<dialect>.*],
    with a [schema] tag of ["chls.fuzz/1"]. *)
