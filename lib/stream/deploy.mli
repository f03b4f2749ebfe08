(** The continuous deployment loop: {!Traffic} generates, {!Router}
    shards, {!Shard}s drain and incrementally diagnose — tick after
    tick, with an explicit final drain when the fleet goes quiet.  This
    is the long-lived form of {!Fleet.Deploy.run}'s one-shot batch. *)

type config = {
  endpoints : int;  (** initial fleet size *)
  duration_ticks : int;
  shards : int;
  shard_domains : int;
      (** worker domains for the {!Service} plane; 1 = inline
          single-domain servicing (the historical behaviour).  Results
          are byte-identical whatever the value — only wall-clock
          changes. *)
  churn : bool;  (** per-tick join/leave/crash events *)
  fault : Chaos.Fault.cls option;  (** one chaos class over the whole stream *)
  seed : int;
  shed : Shard.shed;
  queue_capacity : int;  (** per-shard ingest queue bound *)
  drain_per_tick : int;  (** per-shard service budget per tick *)
}

val default_config : config
(** 32 endpoints, 48 ticks (two diurnal days), 4 shards, 1 domain, no
    churn, no fault, seed 42, drop-oldest, capacity 256, budget 64. *)

type progress = {
  p_tick : int;
  p_load : float;
  p_alive : int;
  p_offered : int;
  p_shed : int;
  p_drained : int;
  p_depth : int;
  p_buckets : int;
  p_elapsed_ns : float;
}
(** What [?tick] sees after every tick's route+service round — the hook
    behind [snorlax stream --watch]. *)

val watch_line : progress -> string
(** The [--watch] snapshot line (no trailing newline). *)

type bucket_row = {
  shard : int;
  bug_id : string;
  signature : string;
  endpoints_hit : int;
  failing_kept : int;
  success_kept : int;
  top_pattern : string option;
  top_describe : string option;
  f1 : float;
  root_cause_match : bool;
  batch_agrees : bool;
      (** the incremental engine's top pattern equals a from-scratch
          batch diagnosis over the same kept reports — checked per
          bucket at the end of every run *)
  rederives : int;
  fast_updates : int;
}

type summary = {
  cfg : config;
  ticks : int;
  offered : int;
  tracker_malformed : int;
  shed : int;
  drained : int;
  ingested_ok : int;
  ingest_errors : int;
  tracker_held : int;
  tracker_dropped : int;
  leftover_queue : int;
  bucket_count : int;
  rows : bucket_row list;
  incidents : int;
  joins : int;
  leaves : int;
  crashes : int;
  final_endpoints : int;
  inject_faults : int;
  peak_queue_depth : int;
  watermark_highs : int;
  rederives : int;
  fast_updates : int;
  reports_per_sec : float;
      (** sustained server throughput: drained / streaming wall seconds *)
  shed_ratio : float;  (** shed / shard-offered *)
  latency_p50_ns : float;
      (** report→diagnosis latency, fleet-wide: router arrival to
          completion of the refresh that folded the report in — queue
          wait included *)
  latency_p99_ns : float;
  shard_latency : (float * float) array;
      (** per-shard (p50, p99) of the same latency, one entry per shard
          — the tail of a hot shard is visible even when the fleet-wide
          percentile looks healthy *)
  domains_used : int;
      (** worker domains the service plane actually spawned (0 when
          running inline) *)
  agree : bool;  (** every bucket's [batch_agrees] *)
  accounted : bool;
      (** offered = shed + drained + depth held per shard — the
          backpressure accounting invariant *)
  stream_ns : float;
  total_ns : float;
}

val run :
  ?tick:(progress -> unit) ->
  ?baselines:Traffic.baseline list ->
  config ->
  Corpus.Bug.t list ->
  summary
(** Raises [Invalid_argument] on a non-positive shard count, domain
    count or duration (and whatever {!Traffic.create} raises).
    [baselines] (from {!Traffic.prepare}) skips the per-bug reproduction
    step — share one reproduction across runs when benchmarking the same
    scenario at several domain counts. *)

val to_json : summary -> Obs.Json.t
(** The stream summary document ([snorlax stream --out], and the body of
    BENCH_stream.json): run parameters, traffic and churn counts,
    backpressure, incremental-engine counters, report→diagnosis latency
    fleet-wide and per shard, and the agreement and accounting gates. *)
