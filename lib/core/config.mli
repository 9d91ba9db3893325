(** Synthesis configuration as a first-class value.

    The paper's thesis is that C-like HLS lives or dies by its knobs —
    how the designer controls concurrency, timing and resource binding —
    not by the language.  This module makes those knobs one explicit
    record that travels with each compile: the driver folds its
    {!digest} into cache keys (distinct config points are distinct
    cached designs, on disk included), backends receive it as
    {!Backend.knobs}, and [Serve] accepts one per request so sweeps can
    ride the Domain pool.  Nothing reads process-global state on the
    way. *)

type t = {
  resources : Schedule.resources;
      (** functional-unit / memory-port bounds and the chaining (cycle
          time) budget for the scheduling backends *)
  unroll_factor : int;  (** partial loop unrolling; 1 disables *)
  verify : int list list;
      (** argument vectors for per-pass differential verification *)
  dump_after : string list;  (** pass names whose output IR to dump *)
  dump_sink : string -> unit;
      (** where dumps go; excluded from {!render}/{!digest} (a closure
          has no canonical form and never affects the produced design) *)
  sim : Design.engine;  (** simulation engine for [Design.run] calls *)
}

val default : t
(** {!Schedule.default_allocation}, unroll 1, no verification, no dumps,
    {!Design.Compiled} — exactly the pre-config behaviour, so
    [compile ?config] call sites that omit it are unchanged. *)

val with_resources : Schedule.resources -> t -> t

val render : t -> string
(** Canonical one-line rendering
    (["chls.config/2;adders=2;...;sim=compiled"]).  Deterministic:
    equal configurations render equally, and the format is pinned by a
    golden test — changing it invalidates persisted caches, which is
    exactly when it should change. *)

val digest : t -> string
(** MD5 hex of {!render}: the cache-key component. *)

val equal : t -> t -> bool
(** Equality of {!render} (so [dump_sink] is ignored). *)

val knobs : t -> Backend.knobs
(** The backend-facing half: resources, unroll factor and the pass
    options assembled for {!Registry.compile}. *)

val to_json : t -> Metrics.json
(** For metrics reports and serve requests; [dump_after]/[dump_sink]
    are omitted (meaningless across a wire). *)

val of_json : Metrics.json -> (t, string) result
(** Parse a serve request's ["config"] member.  Every field is optional
    and defaults to {!default}'s value; unknown fields are rejected so
    typos fail loudly.  Resource bounds are [null] (unconstrained) or
    positive ints. *)
