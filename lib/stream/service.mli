(** The shard service plane: every tick's budgeted drain runs as one
    batch on a persistent {!Snorlax_util.Pool} of
    {!Snorlax_util.Pool.lanes}[ ~jobs:domains (Array.length shards)]
    jobs, one shard per item.

    Ownership by phase is the safety argument.  The router, traffic
    generator, module-build table and pending-success pool stay on the
    caller, and so does every {!offer}: while the caller routes (and may
    build modules into the shared table), no other domain runs.  A
    shard's queue, collector, incremental engines, flight recorder and
    accounting counters move to a pool domain only inside a
    {!service_all} batch, where each shard is one item and so is
    touched by exactly one domain; the caller takes part in the batch
    and returns only after its barrier.  The pool's batch mutex is the
    happens-before edge that makes shard state written on a pool domain
    visible to the caller's reads after {!service_all} returns.  Lanes
    record telemetry into private {!Obs.Scope} contexts merged after
    each batch, and nested decode inside a lane is pinned sequential —
    both through {!Obs.Scope.map_lanes}, the lane body corpus sweeps
    use too.

    Determinism: shards share no mutable state and each sees the same
    per-shard operation sequence (a tick's offers, then its drain)
    whatever the width, so bucket tables and the
    [offered = shed + drained + depth] accounting are byte-identical
    across domain counts. *)

type t

val create :
  shards:Shard.t array ->
  latency:Obs.Metrics.histogram array ->
  domains:int ->
  t
(** [domains <= 1] selects inline mode: no domains are spawned and every
    call runs on the caller.  Otherwise the pool gets
    [Pool.lanes ~jobs:domains (Array.length shards)] jobs (no more than
    the shards or the hardware threads): the caller and one fewer
    spawned domains.  [latency.(i)] receives shard [i]'s
    report→diagnosis latency observations (queue wait included) from
    whichever domain services shard [i] — give every shard its own
    histogram.  Raises [Invalid_argument] on a length mismatch. *)

val domains : t -> int
(** The number of domains servicing shards: 0 in inline mode, else
    [Pool.lanes ~jobs:domains (Array.length shards)]. *)

val offer : t -> int -> arrival:float -> bytes -> unit
(** Enqueue a packet for shard [idx] on the calling domain.  Never drops
    — shed policy applies at the shard queue. *)

val service_all : t -> budget:int -> unit
(** One budgeted {!Shard.service} per shard as a single pool batch.  On
    return no pool domain touches any shard, so the caller may read
    shard state (depth, counters, buckets) directly.  A lane that
    raises fails the batch fast (shards not yet started are skipped)
    and its exception is re-raised on the calling domain. *)

val stop : t -> unit
(** Join the pool's domains.  Idempotent; a no-op in inline mode.
    Call after the final drain, before reading fleet-wide results. *)
