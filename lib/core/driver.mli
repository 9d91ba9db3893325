(** The compilation driver: parse once, compile many, cache by content.

    The paper's argument is comparative — the same C program pushed
    through many surveyed compilers — and before this module every
    consumer re-parsed and re-typechecked the source once per backend.  A
    {!session} owns one source: the frontend runs exactly once (memoized,
    timed), every backend compiles through {!compile} which memoizes the
    resulting {!Design.t} in a process-wide artifact cache keyed by a
    content hash of (source digest, backend, entry, {!Config.digest}),
    and {!compile_all} runs dialect legality first and returns
    per-backend accept/reject values instead of raising.

    Per-stage timings and cache activity land in the session's
    {!Metrics.t} registry ([driver.frontend_ms],
    [driver.compile.<backend>_ms], [driver.cache.hits/misses]), which
    [chlsc compare --metrics-json] and [BENCH_driver.json] render. *)

type session

val create : ?entry:string -> string -> session
(** A session over a source string; [entry] defaults to ["main"].  The
    frontend has not run yet — it runs (once) on first demand. *)

val entry : session -> string

val source_digest : session -> string
(** Hex content digest of the source — the frontend half of the cache
    key. *)

val metrics : session -> Metrics.t
(** The session's live metrics registry (timings, cache counters). *)

(** {1 Typed rejection} *)

type error =
  | Frontend_error of { message : string; loc : Ast.loc }
      (** parse or typecheck failure — poisons the whole session *)
  | No_c_frontend of { backend : string }
      (** structural EDSL (Ocapi): there is no C source to compile *)
  | Dialect_reject of { backend : string;
                        violations : Dialect.violation list }
      (** the dialect's published restrictions reject the program *)
  | Backend_error of { backend : string; message : string; loc : Ast.loc }
      (** the backend failed mid-compile (lowering, concurrency check,
          unsatisfiable constraints...) *)
  | Verification_error of { backend : string; message : string }
      (** a semantics-preserving pass diverged under the config's
          [verify] vectors *)
  | Constraint_infeasible of { backend : string; message : string }
      (** no allocation meets the program's timing constraints
          (HardwareC's [constrain] walk exhausted the lattice) — a
          property of the design point, not a failure; explore sweeps
          render these as typed [infeasible] cells *)

val render_error : ?file:string -> error -> string
(** One-line diagnostic; locations render as [file:line:col] when a file
    name is given and the location is known. *)

(** {1 Compiling} *)

val program : ?ctx:Span.ctx -> session -> (Ast.program, error) result
(** The parsed, type-checked program.  Runs the frontend on first call
    (recording [driver.frontend_ms]); later calls are cache hits.
    Under a span context, every call opens a ["frontend"] span whose
    [memo] attribute says whether the session memo answered. *)

val compile :
  ?ctx:Span.ctx -> ?config:Config.t -> session -> Registry.t ->
  (Design.t, error) result
(** Compile through one backend: dialect legality first, then the
    content-hashed design cache, then the backend itself (under
    [config]'s knobs, default {!Config.default}) with every backend
    exception converted to a typed {!error}.  Never raises on bad
    input; a repeated call with identical (source, backend, entry,
    config digest) is a cache hit returning the same design, and two
    calls differing only in config compile and cache independently.

    Under a span context the stages become spans: ["frontend"],
    ["dialect-check"], and a ["backend"] span whose [cache] attribute
    records provenance ([front]/[store]/[miss]); a fresh compile
    additionally replays its {!Passes} trace as one ["pass:<name>"]
    child span per declared pass, reusing the engine's own timings and
    IR-size deltas as attributes. *)

val compile_all :
  ?ctx:Span.ctx -> ?config:Config.t -> ?backends:Registry.t list -> session ->
  (Registry.t * (Design.t, error) result) list
(** {!compile} across [backends] — the frontend runs once, each backend
    gets its own accept/reject verdict.  Verdict order is contractual:
    exactly the order of [backends], defaulting to registry declaration
    (Table 1) order — never the iteration order of any hash table — so
    compare tables, metrics reports and the serve protocol are
    byte-stable across runs. *)

val reference : ?ctx:Span.ctx -> session -> args:int list -> (int, error) result
(** The software oracle on the session's (already parsed) program — the
    frontend is amortized here too.  Under a span context the run is an
    ["oracle"] span.  A program that exhausts the interpreter's step
    budget is a [Backend_error] from ["reference"]. *)

(** {1 Running} *)

(** How a run that ran out of budget ended. *)
type timeout =
  | Cycles of { cycles : int; state : int }
      (** a clocked FSMD simulator ({!Rtlsim} or its compiled engine)
          reached its cycle limit in FSM state [state] *)
  | Tokens of { tokens_fired : int; time : float }
      (** CASH's asynchronous simulator reached its token limit *)
  | Limit of string
      (** a simulator whose limit exception carries no payload, named
          (["handelc"], ["c2verilog"], ["cir-interp"]) *)

val run :
  ?ctx:Span.ctx -> ?vcd:Vcd.t -> ?sim:Design.engine -> Design.t ->
  int list -> (Design.run_result, timeout) result
(** {!Design.run_traced} on 64-bit integer arguments, with every
    simulator's limit exception classified into a {!timeout}, so no
    caller sees one escape. *)

val render_timeout : timeout -> string
(** One-line diagnostic, e.g. ["timeout after 2000000 cycles (in state
    0)"]. *)

(** {1 The process-wide artifact cache}

    The driver's memo is a {!Cache.t}: a decoded in-process front tier
    (always on) over an optional pluggable byte store.  Attaching a
    {!Cache.Disk} store makes warm-cache state survive restarts —
    designs are encoded with [Marshal] (closures included), entries are
    versioned by executable digest and checksummed, and every failure
    mode degrades to a miss plus a recompile. *)

val cache_size : unit -> int
(** Designs currently memoized in the decoded front tier. *)

val clear_cache : unit -> unit
(** Drop every front-tier design (benchmarks use this to measure cold
    compiles and to simulate restarts; sessions keep their frontend
    memo).  An attached byte store keeps its entries. *)

val attach_disk_cache :
  ?max_bytes:int -> dir:string -> unit -> (Cache.store, string) result
(** Open (creating if needed) a persistent design store under [dir] and
    plug it behind the front tier.  [Error message] if the directory is
    unusable — the caller decides whether that is fatal. *)

val set_cache_store : Cache.store option -> unit
(** Plug in (or detach, with [None]) an arbitrary byte store. *)

val cache_store : unit -> Cache.store option

val cache_metrics : unit -> (string * int) list
(** Cache-subsystem gauges and counters ([driver.cache.front_entries],
    [driver.cache.front_hits/front_misses],
    [driver.store.hits/misses/puts/evictions/corrupt/version_skew/...])
    for metrics reports and [chlsc cache stats]. *)

val cache_hit_rates : unit -> (string * float) list
(** Derived hit-rate percentages — [driver.cache.front_hit_rate_pct]
    over the decoded front tier, [driver.store.hit_rate_pct] over the
    byte store — each present only once that tier has seen at least one
    lookup, so a fresh process reports nothing rather than 0%. *)
