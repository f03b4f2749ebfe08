(** The ambient telemetry context.

    Instrumentation points all over the stack (the PT decoder, the
    simulator's scheduler hook, the corpus runner) record through this
    module rather than threading a registry through every signature.
    When no scope is enabled — the default — every recording call is a
    single [None] match, which is what keeps telemetry-off runs at the
    seed's speed.

    The context slot is domain-local ([Domain.DLS]): a freshly spawned
    domain always starts with no scope, so ambient recording calls on
    pool domains are no-ops unless the lane installs a private context
    with {!using} (as {!map_lanes} does).  Cross-domain telemetry therefore
    flows one way only — lanes record into contexts they own, and
    {!map_lanes} folds those registries into the submitting domain's
    registry after the batch's barrier. *)

type ctx = {
  metrics : Metrics.t;
  trace : Span.t;
  mutable samples_rev : (float * (string * float) list) list;
      (** counter/gauge time series for the Chrome exporter: [(ts_ns,
          changed scalars)] recorded at span boundaries, newest first *)
  mutable n_samples : int;
  last_values : (string, float) Hashtbl.t;  (** exporter internals *)
}

val make : unit -> ctx
(** A fresh context, not installed anywhere.  Workers pass one to
    {!using}; the owner reads [ctx.metrics] after the worker quiesces. *)

val enable : unit -> ctx
(** Install (and return) a fresh context on the calling domain,
    replacing any previous one. *)

val using : ctx -> (unit -> 'a) -> 'a
(** Run [f] with [c] installed as the calling domain's context,
    restoring the previous one afterwards (even on raise).  This is how
    a worker domain gets private ambient telemetry: recordings land in
    [c.metrics], which the spawning domain merges after joining. *)

val disable : unit -> unit

val current : unit -> ctx option

val enabled : unit -> bool

val with_span :
  ?args:(string * Span.arg_value) list -> string -> (unit -> 'a) -> 'a
(** Run under a span of the current trace; just runs [f] when disabled. *)

val count : string -> int -> unit
(** Add to a counter by name; no-op when disabled. *)

val set_gauge : string -> float -> unit

val observe : string -> float -> unit
(** Record into a histogram by name; no-op when disabled. *)

val timed : string -> (unit -> 'a) -> 'a
(** Run [f] and record its wall-clock duration (ns) into the named
    histogram — even when [f] raises.  Just runs [f] when disabled.
    Like {!with_span}, completing a timed section samples changed
    counters/gauges into the Chrome-trace time series. *)

val map_lanes :
  Snorlax_util.Pool.t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_lanes pool f arr] is [Array.mapi f arr] run as one batch on a
    caller-owned pool, one item per lane — the lane body shared by
    {!sweep}, the stream's shard service plane and trace processing's
    decode fan-out.

    - On a one-job pool: exactly [Array.mapi f arr] on the calling
      domain — no private scope, {!Snorlax_util.Pool.default_jobs}
      untouched.
    - Otherwise: each lane runs under [Pool.with_default_jobs 1], so
      nested decode that resolves its width from the default stays
      sequential, and — when a scope is enabled — under a private
      context ({!make}/{!using}) whose metrics are merged into the
      ambient registry ({!Metrics.merge}) in input order after the
      batch's barrier.  Lane spans are not kept.

    Results come back in input order; an exception raised by a lane
    cancels the lanes not yet started and is re-raised to the caller
    (nothing is merged then).  [f] must touch no domain-unsafe shared
    state. *)

val sweep : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [sweep ~jobs f items] is [List.map f items] fanned one item per lane —
    the lane function behind every corpus-wide sweep (the oracle
    cross-check, fix validation, the chaos sweep, the stream's baseline
    reproductions).  It runs {!map_lanes} on a dedicated
    {!Snorlax_util.Pool.with_pool} of width
    {!Snorlax_util.Pool.lanes}[ ~jobs (List.length items)], so width
    [<= 1] is the plain in-order map on the calling domain. *)

val export_chrome : unit -> Json.t option
(** The current context as a Chrome trace-event document, including the
    counter/gauge time series sampled at span boundaries. *)

val export_metrics : unit -> Json.t option
(** The current context's metrics registry as JSON. *)

val export_openmetrics : unit -> string option
(** The current context's registry as OpenMetrics exposition text. *)

val summary : unit -> string
(** Span tree plus metrics tables, for [--obs-summary]; empty when
    disabled. *)
