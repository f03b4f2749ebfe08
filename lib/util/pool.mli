(** A small reusable domain pool (OCaml 5 [Domain]/[Mutex]/[Condition])
    for embarrassingly parallel batches: per-thread trace decodes, corpus
    sweeps and the shard service plane.  It is the only code that spawns
    a domain.

    A pool of size [n] runs batches on [n] domains: [n - 1] spawned
    workers plus the submitting domain, which participates instead of
    blocking.  Size [<= 1] spawns nothing and every batch runs inline —
    the sequential fallback.  Batches hand out indices from a shared
    cursor under a mutex; items may complete in any order, but callers
    that write result [i] into slot [i] (as {!map} does) get output
    identical to a sequential run.

    Batches fail fast: the first item that raises cancels every item not
    yet claimed (items already running on other domains still finish),
    and the exception is re-raised by {!run}.

    Batch functions must not touch domain-unsafe global state.  Callers
    fan out through [Obs.Scope.map_lanes], which gives each lane a
    private telemetry scope, merges it after the batch's barrier and pins
    nested decode sequential. *)

type t

val create : jobs:int -> t
(** A pool running batches on [max 1 jobs] domains. *)

val jobs : t -> int

val run : t -> int -> (int -> unit) -> unit
(** [run t n f] evaluates [f i] for every [i] in [0, n - 1], spread over
    the pool's domains; returns when all are done.  If any [f i] raised,
    the remaining unclaimed items are cancelled and one such exception is
    re-raised.  Batches do not nest: [f] must not call {!run} on any
    pool. *)

val map : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]: output order matches input order regardless of
    pool size or scheduling. *)

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent; the pool then runs
    batches inline. *)

val lanes : jobs:int -> int -> int
(** [lanes ~jobs n] is the useful width of a fan-out of [n] items asked to
    run on [jobs] domains: [min (max 1 jobs)
    (Domain.recommended_domain_count ()) n].  CPU-bound work gains nothing
    from more domains than hardware threads, nor from more lanes than
    items. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a dedicated pool and tears it down
    (joining its domains) when [f] returns or raises.  Use this for
    scoped fan-outs — corpus sweeps, benchmarks — that should not grow or
    occupy the process-wide {!get} pool; the dedicated pool never touches
    the shared slot. *)

val default_jobs : unit -> int
(** The default parallelism: the calling domain's {!with_default_jobs}
    override when one is active, else the process-wide default —
    initially [Domain.recommended_domain_count ()], overridable with
    {!set_default_jobs} (e.g. from a [--decode-jobs] flag). *)

val set_default_jobs : int -> unit
(** Clamped below at 1. *)

val with_default_jobs : int -> (unit -> 'a) -> 'a
(** Run [f] with {!default_jobs} pinned to [max 1 n] {e on the calling
    domain only}, restoring the previous override afterwards.  Sweep and
    shard-service lanes ([Obs.Scope.map_lanes]) wrap their work in
    [with_default_jobs 1] so nested
    decode/diagnosis stays sequential inside each lane instead of
    contending for the shared pool from multiple domains. *)

val get : jobs:int -> t
(** The shared process-wide pool, (re)created on demand.  [~jobs:1]
    honors the request exactly: it returns a dedicated inline pool that
    runs batches sequentially on the calling domain, even when a larger
    shared pool exists — sequential baselines must never silently run
    parallel.  For [jobs > 1] the shared pool only ever grows: asking for
    fewer jobs than the current pool has reuses the bigger pool (idle
    workers are harmless), asking for more replaces it.  The shared pool
    is shut down automatically at exit. *)
