(** A small reusable domain pool (OCaml 5 [Domain]/[Mutex]/[Condition])
    for embarrassingly parallel batches — per-thread trace decodes being
    the motivating case: every [(tid, snapshot)] pair decodes
    independently, so the server can fan them across cores and merge in
    input order.

    A pool of size [n] runs batches on [n] domains: [n - 1] spawned
    workers plus the submitting domain, which participates instead of
    blocking.  Size [<= 1] spawns nothing and every batch runs inline —
    the sequential fallback.  Batches hand out indices from a shared
    cursor under a mutex; items may complete in any order, but callers
    that write result [i] into slot [i] (as {!map} does) get output
    identical to a sequential run.

    Batches fail fast: the first item that raises cancels every item not
    yet claimed (items already running on other domains still finish),
    and the exception is re-raised by {!run}/{!await}.

    Batch functions must not touch domain-unsafe global state — record
    telemetry into a chunk-private {!Obs.Metrics} registry (or a private
    scope installed with [Obs.Scope.using]) and fold it back on the
    submitting domain after the batch returns. *)

type t

val create : jobs:int -> t
(** A pool running batches on [max 1 jobs] domains. *)

val jobs : t -> int

val run : t -> int -> (int -> unit) -> unit
(** [run t n f] evaluates [f i] for every [i] in [0, n - 1], spread over
    the pool's domains; returns when all are done.  If any [f i] raised,
    the remaining unclaimed items are cancelled and one such exception is
    re-raised.  Batches do not nest: [f] must not call {!run} (or
    {!submit}) on any pool. *)

val map : t -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.mapi]: output order matches input order regardless of
    pool size or scheduling. *)

(** {2 Asynchronous batches}

    [submit] starts a batch on the worker domains and returns
    immediately, so the submitting domain can consume completed items —
    e.g. merge decode results in input order — while the rest are still
    in flight.  At most one batch per pool may be in flight at a time. *)

type handle

val submit : t -> int -> (int -> unit) -> handle
(** Enqueue a batch of [n] items and return without running any of them
    on the calling domain (a size-1 pool runs them lazily inside
    {!wait_item}/{!await} instead).  Raises [Invalid_argument] if a batch
    is already in flight on this pool. *)

val wait_item : t -> handle -> int -> unit
(** Block until item [i] of the batch has completed (or the batch
    failed).  While waiting, the calling domain claims and runs queued
    items itself, so waiting overlaps with useful work rather than
    idling.  Completion of [i] does not imply success of the whole batch
    — check via {!await}. *)

val await : t -> handle -> unit
(** Block (helping, like {!wait_item}) until every item has completed or
    been cancelled, then re-raise the first failure if any.  Must be
    called exactly once per {!submit} to release the pool for the next
    batch. *)

val balanced_chunks : weights:int array -> chunks:int -> int array array
(** [balanced_chunks ~weights ~chunks] partitions the indices
    [0 .. length weights - 1] into at most [chunks] groups with
    approximately equal total weight (greedy LPT: heaviest first onto the
    least-loaded chunk).  Deterministic; every index appears in exactly
    one chunk; no chunk is empty.  Used to turn many small uneven decode
    tasks into a few cost-balanced pool items. *)

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
