module Core = Snorlax_core
module Collector = Fleet.Collector
module Signature = Fleet.Signature

type config = {
  endpoints : int;
  duration_ticks : int;
  shards : int;
  shard_domains : int;
  churn : bool;
  fault : Chaos.Fault.cls option;
  seed : int;
  shed : Shard.shed;
  queue_capacity : int;
  drain_per_tick : int;
}

let default_config =
  {
    endpoints = 32;
    duration_ticks = 48;
    shards = 4;
    shard_domains = 1;
    churn = false;
    fault = None;
    seed = 42;
    shed = Shard.Drop_oldest;
    queue_capacity = 256;
    drain_per_tick = 64;
  }

type progress = {
  p_tick : int;
  p_load : float;
  p_alive : int;
  p_offered : int;  (** cumulative packets the generator emitted *)
  p_shed : int;
  p_drained : int;
  p_depth : int;  (** total queue depth across shards right now *)
  p_buckets : int;
  p_elapsed_ns : float;
}

let watch_line (p : progress) =
  let secs = p.p_elapsed_ns /. 1e9 in
  let rate = if secs > 0.0 then float_of_int p.p_drained /. secs else 0.0 in
  Printf.sprintf
    "[stream] tick %d: load %.2f, %d eps, %d offered / %d shed / %d drained \
     (%.0f/s), depth %d, %d buckets"
    p.p_tick p.p_load p.p_alive p.p_offered p.p_shed p.p_drained rate p.p_depth
    p.p_buckets

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
      (** incremental top pattern == from-scratch batch top pattern *)
  rederives : int;
  fast_updates : int;
}

type summary = {
  cfg : config;
  ticks : int;
  offered : int;  (** packets the traffic generator emitted *)
  tracker_malformed : int;
  shed : int;
  drained : int;
  ingested_ok : int;
  ingest_errors : int;
  tracker_held : int;
  tracker_dropped : int;
  leftover_queue : int;  (** should be 0 after the final drain *)
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
  reports_per_sec : float;  (** sustained: drained / streaming wall seconds *)
  shed_ratio : float;  (** shed / shard-offered *)
  latency_p50_ns : float;
  latency_p99_ns : float;
  shard_latency : (float * float) array;
      (** per-shard (p50, p99) report->diagnosis latency, queue wait
          included *)
  domains_used : int;  (** worker domains actually spawned; 0 = inline *)
  agree : bool;  (** every bucket's [batch_agrees] *)
  accounted : bool;  (** offered = shed + drained + leftover, per shard *)
  stream_ns : float;  (** the streaming phase (generator setup excluded) *)
  total_ns : float;
}

let now = Obs.Span.wall_clock_ns

let diagnose_bucket shards shard_idx shard (b : Collector.bucket) =
  let collector = Shard.collector shard in
  let snap =
    match Shard.engine shard b with
    | Some eng -> Incremental.results eng
    | None -> None
  in
  let v =
    Collector.verdict collector b
      (Option.bind snap (fun s -> s.Incremental.top))
  in
  (* The lazy cross-check: a from-scratch batch diagnosis over the same
     kept reports must land on the same top pattern.  Cheap here — the
     traces are warm in the shared decode cache. *)
  let batch = Collector.diagnose collector b in
  let top_pattern = v.Collector.top_pattern in
  let batch_top =
    (Collector.verdict collector b batch.Core.Diagnosis.top)
      .Collector.top_pattern
  in
  let batch_agrees = Option.equal String.equal top_pattern batch_top in
  if not batch_agrees then
    Obs.Log.error "stream/incremental_diverged"
      ~fields:
        [
          ("shard", Obs.Log.Int shard_idx);
          ("bug", Obs.Log.Str b.Collector.signature.Signature.bug_id);
          ( "incremental",
            Obs.Log.Str (Option.value ~default:"-" top_pattern) );
          ("batch", Obs.Log.Str (Option.value ~default:"-" batch_top));
          ("recorder", Obs.Log.Str (Obs.Log.Recorder.dump (Shard.recorder shards.(shard_idx))));
        ];
  {
    shard = shard_idx;
    bug_id = b.Collector.signature.Signature.bug_id;
    signature = Signature.to_string b.Collector.signature;
    endpoints_hit = List.length b.Collector.endpoints;
    failing_kept = Collector.failing_kept b;
    success_kept = Collector.success_kept b;
    top_pattern;
    top_describe = v.Collector.top_describe;
    f1 = v.Collector.f1;
    root_cause_match = v.Collector.root_cause_match;
    batch_agrees;
    rederives = (match snap with Some s -> s.Incremental.rederives | None -> 0);
    fast_updates =
      (match snap with Some s -> s.Incremental.fast_updates | None -> 0);
  }

let run ?tick ?baselines cfg bugs =
  if cfg.shards < 1 then invalid_arg "Stream.Deploy.run: shards < 1";
  if cfg.shard_domains < 1 then
    invalid_arg "Stream.Deploy.run: shard_domains < 1";
  if cfg.duration_ticks < 1 then
    invalid_arg "Stream.Deploy.run: duration_ticks < 1";
  Obs.Scope.with_span "stream"
    ~args:
      [
        ("endpoints", Obs.Span.Int cfg.endpoints);
        ("shards", Obs.Span.Int cfg.shards);
        ("domains", Obs.Span.Int cfg.shard_domains);
        ("ticks", Obs.Span.Int cfg.duration_ticks);
      ]
  @@ fun () ->
  let t0 = now () in
  let traffic =
    Traffic.create ~seed:cfg.seed ~endpoints:cfg.endpoints ~churn:cfg.churn
      ?fault:cfg.fault ?baselines bugs
  in
  let modules = Hashtbl.create 8 in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~id ~capacity:cfg.queue_capacity ~shed:cfg.shed ~modules
          ())
  in
  (* Same private-registry trick as the batch fleet: the summary's
     latency percentiles exist with telemetry off.  One registry per
     shard so each worker domain writes only its own histogram; the
     fleet-wide percentiles come from a merge at the end. *)
  let latency_regs = Array.init cfg.shards (fun _ -> Obs.Metrics.create ()) in
  let latency_hists =
    Array.map (fun r -> Obs.Metrics.histogram r "latency_ns") latency_regs
  in
  let svc =
    Service.create ~shards ~latency:latency_hists ~domains:cfg.shard_domains
  in
  (* [stop] is idempotent: the happy path retires the workers inside the
     timed region below; this protect only covers exceptional exits. *)
  Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
  let router = Router.create ~offer:(Service.offer svc) shards modules in
  let offered = ref 0 in
  let incidents = ref 0 in
  let joins = ref 0 and leaves = ref 0 and crashes = ref 0 in
  let depth_total () =
    Array.fold_left (fun acc s -> acc + Shard.depth s) 0 shards
  in
  let bucket_total () =
    Array.fold_left
      (fun acc s -> acc + List.length (Collector.buckets (Shard.collector s)))
      0 shards
  in
  (* The streaming phase proper: generate, route, service — per tick. *)
  let t_stream0 = now () in
  for _ = 1 to cfg.duration_ticks do
    let batch = Traffic.tick traffic in
    offered := !offered + batch.Traffic.offered;
    incidents := !incidents + batch.Traffic.incidents;
    joins := !joins + batch.Traffic.joins;
    leaves := !leaves + batch.Traffic.leaves;
    crashes := !crashes + batch.Traffic.crashes;
    List.iter (Router.route router) batch.Traffic.packets;
    Service.service_all svc ~budget:cfg.drain_per_tick;
    match tick with
    | Some f ->
      f
        {
          p_tick = batch.Traffic.tick;
          p_load = batch.Traffic.load;
          p_alive = Traffic.alive traffic;
          p_offered = !offered;
          p_shed = Array.fold_left (fun a s -> a + Shard.shed_count s) 0 shards;
          p_drained = Array.fold_left (fun a s -> a + Shard.drained s) 0 shards;
          p_depth = depth_total ();
          p_buckets = bucket_total ();
          p_elapsed_ns = now () -. t_stream0;
        }
    | None -> ()
  done;
  (* Fleet gone quiet: drain the backlog (bounded — every pass shrinks
     the queues, but guard against a zero-budget misconfiguration). *)
  let guard = ref (cfg.queue_capacity * cfg.shards + 1) in
  while depth_total () > 0 && !guard > 0 do
    Service.service_all svc ~budget:(max 1 cfg.drain_per_tick);
    decr guard
  done;
  (* Retire the workers before timing ends: the join is part of the
     service's cost, and after [stop] every shard is plain data again. *)
  let domains_used = Service.domains svc in
  Service.stop svc;
  let t_streamed = now () in
  let rows =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun idx s ->
              List.map
                (diagnose_bucket shards idx s)
                (Collector.buckets (Shard.collector s)))
            shards))
  in
  let t_done = now () in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 shards in
  let shard_offered = sum Shard.offered in
  let shed = sum Shard.shed_count in
  let drained = sum Shard.drained in
  let leftover = depth_total () in
  let accounted =
    Array.for_all
      (fun s ->
        Shard.offered s
        = Shard.shed_count s + Shard.drained s + Shard.depth s)
      shards
  in
  let stream_ns = t_streamed -. t_stream0 in
  let secs = stream_ns /. 1e9 in
  let shed_ratio =
    if shard_offered = 0 then 0.0
    else float_of_int shed /. float_of_int shard_offered
  in
  Obs.Scope.set_gauge "stream/shed_ratio" shed_ratio;
  let fleet_reg = Obs.Metrics.create () in
  Array.iter (fun r -> Obs.Metrics.merge ~into:fleet_reg r) latency_regs;
  let fleet_hist = Obs.Metrics.histogram fleet_reg "latency_ns" in
  let shard_latency =
    Array.map
      (fun h ->
        ( Obs.Metrics.percentile h ~p:50.0,
          Obs.Metrics.percentile h ~p:99.0 ))
      latency_hists
  in
  {
    cfg;
    ticks = cfg.duration_ticks;
    offered = !offered;
    tracker_malformed = Router.malformed router;
    shed;
    drained;
    ingested_ok = sum Shard.ingest_ok;
    ingest_errors = sum Shard.ingest_err;
    tracker_held = Router.pending_held router;
    tracker_dropped = Router.pending_dropped router;
    leftover_queue = leftover;
    bucket_count = List.length rows;
    rows;
    incidents = !incidents;
    joins = !joins;
    leaves = !leaves;
    crashes = !crashes;
    final_endpoints = Traffic.alive traffic;
    inject_faults = Traffic.faults traffic;
    peak_queue_depth =
      Array.fold_left (fun a s -> max a (Shard.peak_depth s)) 0 shards;
    watermark_highs = sum Shard.high_crossings;
    rederives =
      List.fold_left (fun a (r : bucket_row) -> a + r.rederives) 0 rows;
    fast_updates =
      List.fold_left (fun a (r : bucket_row) -> a + r.fast_updates) 0 rows;
    reports_per_sec =
      (if secs > 0.0 then float_of_int drained /. secs else 0.0);
    shed_ratio;
    latency_p50_ns = Obs.Metrics.percentile fleet_hist ~p:50.0;
    latency_p99_ns = Obs.Metrics.percentile fleet_hist ~p:99.0;
    shard_latency;
    domains_used;
    agree = List.for_all (fun r -> r.batch_agrees) rows;
    accounted;
    stream_ns;
    total_ns = t_done -. t0;
  }

let to_json s =
  let open Obs.Json in
  Obj
    [
      ("endpoints", Int s.cfg.endpoints);
      ("duration_ticks", Int s.ticks);
      ("shards", Int s.cfg.shards);
      ("shard_domains", Int s.cfg.shard_domains);
      ("domains_used", Int s.domains_used);
      ("churn", Bool s.cfg.churn);
      ( "fault",
        String
          (match s.cfg.fault with
          | Some c -> Chaos.Fault.name c
          | None -> "none") );
      ("shed_policy", String (Shard.shed_name s.cfg.shed));
      ("offered", Int s.offered);
      ("shed", Int s.shed);
      ("drained", Int s.drained);
      ("ingested_ok", Int s.ingested_ok);
      ("ingest_errors", Int s.ingest_errors);
      ("tracker_malformed", Int s.tracker_malformed);
      ("tracker_held", Int s.tracker_held);
      ("tracker_dropped", Int s.tracker_dropped);
      ("buckets", Int s.bucket_count);
      ("incidents", Int s.incidents);
      ("joins", Int s.joins);
      ("leaves", Int s.leaves);
      ("crashes", Int s.crashes);
      ("final_endpoints", Int s.final_endpoints);
      ("inject_faults", Int s.inject_faults);
      ("peak_queue_depth", Int s.peak_queue_depth);
      ("watermark_highs", Int s.watermark_highs);
      ("rederives", Int s.rederives);
      ("fast_updates", Int s.fast_updates);
      ("reports_per_sec", Float s.reports_per_sec);
      ("shed_ratio", Float s.shed_ratio);
      ("report_to_diagnosis_p50_ns", Float s.latency_p50_ns);
      ("report_to_diagnosis_p99_ns", Float s.latency_p99_ns);
      ( "shard_latency",
        List
          (Array.to_list
             (Array.mapi
                (fun i (p50, p99) ->
                  Obj
                    [
                      ("shard", Int i);
                      ("report_to_diagnosis_p50_ns", Float p50);
                      ("report_to_diagnosis_p99_ns", Float p99);
                    ])
                s.shard_latency)) );
      ("incremental_agrees_batch", Bool s.agree);
      ("accounted", Bool s.accounted);
      ("stream_ns", Float s.stream_ns);
      ("total_ns", Float s.total_ns);
    ]
