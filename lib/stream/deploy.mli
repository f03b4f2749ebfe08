(** The fleet driver (Figure 2, steps 7–8 at fleet scale): batches of
    wire packets go to the {!Router}, which shards them; {!Shard}s drain
    and incrementally diagnose — tick after tick, with an explicit final
    drain when the fleet goes quiet — and every bucket is then judged
    against a from-scratch batch diagnosis.  {!run} feeds the loop from
    the continuous {!Traffic} generator, {!once} from one shipment per
    endpoint of each scenario. *)

type config = {
  endpoints : int;  (** initial fleet size *)
  duration_ticks : int;
  shards : int;
  shard_domains : int;
      (** domains for the {!Service} plane (capped at [shards] and the
          hardware threads); 1 = inline single-domain servicing (the
          historical behaviour).  Results are byte-identical whatever the
          value — only wall-clock changes. *)
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
    behind [snorlax stream --watch] and [snorlax fleet --watch].  A tick
    of {!once} is one endpoint's shipment. *)

val watch_line : progress -> string
(** The [--watch] snapshot line (no trailing newline). *)

type bucket_row = {
  shard : int;
  bug_id : string;
  signature : string;
  endpoints_hit : int;
  failing_kept : int;
  failing_dropped : int;
  success_kept : int;
  success_dropped : int;
  wire_bytes : int;  (** encoded size of every packet routed here *)
  qualifiers : string list;
      (** rendered {!Fleet.Collector.qualifier}s — provenance features
          that discriminate this bucket's failing reports from its
          successes *)
  top_pattern : string option;
      (** {!Snorlax_core.Patterns.id} of the incremental engine's top
          scorer *)
  top_describe : string option;  (** its human description *)
  f1 : float;  (** 0 when no pattern scored *)
  root_cause_match : bool;
  ordering_accuracy : float;  (** A_O; 0 when no pattern scored *)
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
  offered : int;  (** packets the generator emitted *)
  tracker_malformed : int;
  shed : int;
  drained : int;
  ingested_ok : int;
  ingest_errors : int;
      (** packets the shard collectors rejected: bad bytes, unknown bug
          id, a report the server build cannot resolve *)
  tracker_held : int;
  tracker_dropped : int;
  unrouted : int;
      (** success reports no bucket claimed: held at the tracker or in a
          shard's collector (whose bucket's failing report was shed) *)
  leftover_queue : int;
  bucket_count : int;
  rows : bucket_row list;
      (** shard by shard for {!run}; for {!once}, in the order the fleet
          created the buckets *)
  wire_bytes : int;  (** encoded bytes of every packet the shards drained *)
  dedup_ratio : float;
      (** failing reports received per bucket; 1.0 means no dedup
          happened, N means N endpoints collapsed into one bucket; 0
          with no bucket *)
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
      (** domains that serviced shards:
          [Pool.lanes ~jobs:shard_domains shards] (capped at the shards
          and the hardware threads), or 0 when running inline *)
  agree : bool;  (** every bucket's [batch_agrees] *)
  accounted : bool;
      (** offered = shed + drained + depth held per shard — the
          backpressure accounting invariant *)
  stream_ns : float;
      (** the streaming phase: generating (for {!once}, simulating the
          endpoints), routing, servicing and the final drain *)
  diagnosis_ns : float;
      (** the end-of-run judgement of every bucket: a from-scratch batch
          diagnosis and a verdict each *)
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

val once :
  ?tick:(progress -> unit) -> endpoints:int -> Corpus.Bug.t list -> summary
(** The one-shot fleet ([snorlax fleet]): every scenario on [endpoints]
    endpoints, each simulated by {!Fleet.Endpoint.run} and shipped as one
    tick, bug by bug and endpoint by endpoint, through
    {!default_config}'s shards; the summary's [cfg] is that config with
    [endpoints] and one tick per shipment.  An endpoint whose bug never
    manifested ships an empty tick.  Raises [Invalid_argument] when
    [endpoints < 1]. *)

val to_json : summary -> Obs.Json.t
(** The stream summary document ([snorlax stream --out], and the body of
    BENCH_stream.json): run parameters, traffic and churn counts,
    backpressure, incremental-engine counters, report→diagnosis latency
    fleet-wide and per shard, and the agreement and accounting gates. *)
