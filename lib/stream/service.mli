(** The shard-per-domain service plane: each {!Shard} (or a round-robin
    group of them when fewer domains than shards are requested) is owned
    by one worker domain, fed by a bounded SPSC command channel from the
    router's domain.

    Ownership is the safety argument.  The router, traffic generator,
    module-build table and pending-success pool stay on the submitting
    domain; a shard's queue, collector, incremental engines, flight
    recorder and accounting counters are touched only by the one worker
    that owns the shard.  The two phases never overlap: while the router
    routes (and may build modules into the shared table), workers only
    execute queue offers, which read no shared state; while workers
    service (collector ingest, decode, diagnosis — reading the module
    table), the router domain is blocked in the {!service_all} barrier.
    Worker telemetry lands in private {!Obs.Scope} contexts merged at
    {!stop}; nested decode inside a worker is pinned sequential via
    [Pool.with_default_jobs 1].

    Determinism: commands are FIFO per channel and all of a tick's
    offers precede its drain, so each shard replays exactly the
    per-shard operation sequence of the single-domain path — bucket
    tables and the [offered = shed + drained + depth] accounting are
    byte-identical whatever the domain count. *)

type t

val create :
  shards:Shard.t array ->
  latency:Obs.Metrics.histogram array ->
  domains:int ->
  t
(** [domains <= 1] (or no shards) selects inline mode: no domains are
    spawned and every call runs on the caller.  Otherwise
    [min domains (Array.length shards)] workers are spawned and shards
    are assigned round-robin.  [latency.(i)] receives shard [i]'s
    report→diagnosis latency observations (queue wait included); with workers, each histogram is
    written only by the worker owning shard [i] — give every shard its
    own histogram.  Raises [Invalid_argument] on a length mismatch. *)

val domains : t -> int
(** Spawned worker domains; 0 in inline mode. *)

val offer : t -> int -> arrival:float -> bytes -> unit
(** Enqueue a packet for shard [idx] (directly in inline mode).  With
    workers, offers buffer on the submitting domain and ship to the
    owning worker as one batched channel item at the next
    {!service_all} (or {!stop}) — same per-shard FIFO order, a fraction
    of the lock traffic.  Never drops — shed policy applies at the shard
    queue, exactly as inline. *)

val service_all : t -> budget:int -> unit
(** One budgeted {!Shard.service} per shard, then a full barrier.  On
    return every worker is quiescent, so the caller may read shard
    state (depth, counters, buckets) directly.  Re-raises a worker's
    exception on the calling domain. *)

val stop : t -> unit
(** Send stop, join the workers, and fold their private telemetry into
    the ambient scope.  Idempotent; a no-op in inline mode.  Call after
    the final drain, before reading fleet-wide results. *)
