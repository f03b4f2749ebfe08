(* The streaming subsystem: the incremental engine's equivalence with the
   from-scratch batch pipeline, shard backpressure (shed policies,
   watermarks, the offered = shed + drained + depth invariant), tracker
   routing, traffic-generator determinism, and the end-to-end streaming
   deployment — including a sweep of all nine chaos fault classes. *)

module Core = Snorlax_core
module Report = Core.Report
module Wire = Fleet.Wire
module Collector = Fleet.Collector
module Incremental = Stream.Incremental
module Shard = Stream.Shard
module Router = Stream.Router
module Traffic = Stream.Traffic
module Deploy = Stream.Deploy

(* --- fixtures ------------------------------------------------------------ *)

let fixture =
  lazy
    (let bug = Corpus.Registry.find_exn "pbzip2-1" in
     match Corpus.Runner.collect bug ~seed_base:1 () with
     | Ok c -> (bug, c)
     | Error msg -> Alcotest.failf "fixture: %s" msg)

let real_envelope ?(endpoint = 0) payload =
  let bug, _ = Lazy.force fixture in
  {
    Wire.endpoint;
    seed = 1;
    bug_id = bug.Corpus.Bug.id;
    config = Pt.Config.default;
    prov = None;
    payload;
  }

let scored_ids = List.map (fun (s : Core.Statistics.scored) ->
    Core.Patterns.id s.Core.Statistics.pattern)

let latency_hist () =
  Obs.Metrics.histogram (Obs.Metrics.create ()) "latency_ns"

(* --- incremental == batch ------------------------------------------------ *)

let check_snapshot_equals_batch name (snap : Incremental.snapshot)
    (batch : Core.Diagnosis.result) =
  Alcotest.(check (list string))
    (name ^ ": same patterns in the same order")
    (scored_ids batch.Core.Diagnosis.scored)
    (scored_ids snap.Incremental.scored);
  List.iter2
    (fun (a : Core.Statistics.scored) (b : Core.Statistics.scored) ->
      Alcotest.(check (float 1e-9)) (name ^ ": same F1") a.Core.Statistics.f1
        b.Core.Statistics.f1;
      Alcotest.(check (float 1e-9))
        (name ^ ": same precision") a.Core.Statistics.precision
        b.Core.Statistics.precision;
      Alcotest.(check (float 1e-9))
        (name ^ ": same recall") a.Core.Statistics.recall
        b.Core.Statistics.recall;
      Alcotest.(check (pair int int))
        (name ^ ": same presence counts")
        (a.Core.Statistics.present_in_failing,
         a.Core.Statistics.present_in_successful)
        (b.Core.Statistics.present_in_failing,
         b.Core.Statistics.present_in_successful))
    batch.Core.Diagnosis.scored snap.Incremental.scored;
  Alcotest.(check int) (name ^ ": same anchor") batch.Core.Diagnosis.anchor_iid
    snap.Incremental.anchor_iid;
  Alcotest.(check (option string))
    (name ^ ": same top")
    (Option.map
       (fun (s : Core.Statistics.scored) ->
         Core.Patterns.id s.Core.Statistics.pattern)
       batch.Core.Diagnosis.top)
    (Option.map
       (fun (s : Core.Statistics.scored) ->
         Core.Patterns.id s.Core.Statistics.pattern)
       snap.Incremental.top)

let test_incremental_equals_batch () =
  let _, c = Lazy.force fixture in
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let batch =
    Core.Diagnosis.diagnose m ~config:Pt.Config.default
      ~failing:c.Corpus.Runner.failing ~successful:c.Corpus.Runner.successful
  in
  let eng = Incremental.create m ~config:Pt.Config.default in
  List.iter (fun r -> Incremental.add_failing eng r) c.Corpus.Runner.failing;
  List.iter
    (fun s -> Incremental.add_successful eng s)
    c.Corpus.Runner.successful;
  match Incremental.results eng with
  | None -> Alcotest.fail "no snapshot after failing reports"
  | Some snap ->
    check_snapshot_equals_batch "one-shot" snap batch;
    Alcotest.(check int) "all failing folded in"
      (List.length c.Corpus.Runner.failing)
      snap.Incremental.snap_failing;
    Alcotest.(check bool) "derived at least once" true
      (snap.Incremental.rederives >= 1)

let test_incremental_equals_batch_interleaved () =
  (* Snapshots taken mid-stream force early derivations; later reports
     then take the fast path or invalidate.  The final answer must still
     be the batch answer, and duplicate deliveries must count like the
     batch seeing the report twice. *)
  let _, c = Lazy.force fixture in
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let first = List.hd c.Corpus.Runner.failing in
  let failing = c.Corpus.Runner.failing @ [ first ] in
  let successful = c.Corpus.Runner.successful in
  let batch =
    Core.Diagnosis.diagnose m ~config:Pt.Config.default ~failing ~successful
  in
  let eng = Incremental.create m ~config:Pt.Config.default in
  Incremental.add_failing eng first;
  (* force a derivation before the bulk arrives *)
  ignore (Incremental.results eng);
  List.iter
    (fun s -> Incremental.add_successful eng s)
    successful;
  ignore (Incremental.results eng);
  List.iter (fun r -> Incremental.add_failing eng r) (List.tl failing);
  (match Incremental.results eng with
  | None -> Alcotest.fail "no snapshot"
  | Some snap ->
    check_snapshot_equals_batch "interleaved" snap batch;
    Alcotest.(check bool)
      (Printf.sprintf "some updates took the fast path (%d)"
         snap.Incremental.fast_updates)
      true
      (snap.Incremental.fast_updates > 0));
  (* results is idempotent: calling again without new reports changes
     nothing and derives nothing. *)
  let r1 = Incremental.rederives eng in
  ignore (Incremental.results eng);
  Alcotest.(check int) "no re-derive without new reports" r1
    (Incremental.rederives eng)

let test_incremental_none_before_failing () =
  let _, c = Lazy.force fixture in
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let eng = Incremental.create m ~config:Pt.Config.default in
  List.iter
    (fun s -> Incremental.add_successful eng s)
    c.Corpus.Runner.successful;
  Alcotest.(check bool) "successes alone anchor nothing" true
    (Incremental.results eng = None)

(* Every corpus bug's default collection, fed in a seeded shuffled
   arrival order with a [results] call after every third report: early
   derivations, deferred re-derives and fast-path updates all happen,
   and the final snapshot must still be the batch answer over the same
   reports in the same arrival order (the first failing report to arrive
   anchors both). *)
let test_incremental_equals_batch_every_bug () =
  let fast = ref 0 in
  List.iteri
    (fun i ((bug : Corpus.Bug.t), collected) ->
      match collected with
      | Error e -> Alcotest.failf "%s: %s" bug.Corpus.Bug.id e
      | Ok c ->
        let m = c.Corpus.Runner.built.Corpus.Bug.m in
        let arrivals =
          Array.of_list
            (List.map Either.left c.Corpus.Runner.failing
            @ List.map Either.right c.Corpus.Runner.successful)
        in
        Snorlax_util.Prng.shuffle
          (Snorlax_util.Prng.create ~seed:(i + 1))
          arrivals;
        let arrivals = Array.to_list arrivals in
        let eng = Incremental.create m ~config:Pt.Config.default in
        List.iteri
          (fun k a ->
            (match a with
            | Either.Left r -> Incremental.add_failing eng r
            | Either.Right s -> Incremental.add_successful eng s);
            if k mod 3 = 2 then ignore (Incremental.results eng))
          arrivals;
        let batch =
          Core.Diagnosis.diagnose m ~config:Pt.Config.default
            ~failing:(List.filter_map Either.find_left arrivals)
            ~successful:(List.filter_map Either.find_right arrivals)
        in
        (match Incremental.results eng with
        | None -> Alcotest.failf "%s: no snapshot" bug.Corpus.Bug.id
        | Some snap -> check_snapshot_equals_batch bug.Corpus.Bug.id snap batch);
        fast := !fast + Incremental.fast_updates eng)
    (Lazy.force Test_corpus.collected);
  Alcotest.(check bool)
    (Printf.sprintf "some bug took the fast path (%d updates)" !fast)
    true (!fast > 0)

(* --- shard backpressure -------------------------------------------------- *)

let shard_failing_packets n =
  (* n distinguishable failing packets: failure_time_ns identifies which
     survived the shed policy. *)
  let _, c = Lazy.force fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  List.init n (fun i ->
      Wire.encode
        (real_envelope ~endpoint:i
           (Wire.Failing { failing with Report.failure_time_ns = i })))

let drain_times shard =
  let hist = latency_hist () in
  ignore (Shard.service shard ~budget:max_int hist);
  match Collector.buckets (Shard.collector shard) with
  | [ b ] ->
    List.map
      (fun (r : Report.failing_report) -> r.Report.failure_time_ns)
      (Collector.failing b)
  | bs -> Alcotest.failf "expected 1 bucket, got %d" (List.length bs)

let test_shard_drop_oldest_keeps_freshest () =
  let shard =
    Shard.create ~id:0 ~capacity:4 ~shed:Shard.Drop_oldest
      ~modules:(Hashtbl.create 4) ()
  in
  List.iter (Shard.offer shard ~arrival:0.0) (shard_failing_packets 10);
  Alcotest.(check int) "offered" 10 (Shard.offered shard);
  Alcotest.(check int) "shed" 6 (Shard.shed_count shard);
  Alcotest.(check int) "depth at capacity" 4 (Shard.depth shard);
  Alcotest.(check (list int)) "the freshest four survived" [ 6; 7; 8; 9 ]
    (drain_times shard);
  Alcotest.(check int) "accounting: offered = shed + drained + depth"
    (Shard.offered shard)
    (Shard.shed_count shard + Shard.drained shard + Shard.depth shard)

let test_shard_drop_newest_keeps_backlog () =
  let shard =
    Shard.create ~id:0 ~capacity:4 ~shed:Shard.Drop_newest
      ~modules:(Hashtbl.create 4) ()
  in
  List.iter (Shard.offer shard ~arrival:0.0) (shard_failing_packets 10);
  Alcotest.(check int) "shed" 6 (Shard.shed_count shard);
  Alcotest.(check (list int)) "the backlog won" [ 0; 1; 2; 3 ]
    (drain_times shard);
  Alcotest.(check int) "accounting: offered = shed + drained + depth"
    (Shard.offered shard)
    (Shard.shed_count shard + Shard.drained shard + Shard.depth shard)

let test_shard_watermarks () =
  (* capacity 10 -> high at 8, low at 5: rising through 8 warns once,
     draining to 5 clears, rising again warns again. *)
  let shard =
    Shard.create ~id:7 ~capacity:10 ~shed:Shard.Drop_oldest
      ~modules:(Hashtbl.create 4) ()
  in
  let junk i = Bytes.of_string (Printf.sprintf "junk-%d" i) in
  let hist = latency_hist () in
  for i = 1 to 8 do
    Shard.offer shard ~arrival:0.0 (junk i)
  done;
  Alcotest.(check int) "high watermark crossed once" 1
    (Shard.high_crossings shard);
  ignore (Shard.service shard ~budget:3 hist);
  for i = 9 to 11 do
    Shard.offer shard ~arrival:0.0 (junk i)
  done;
  Alcotest.(check int) "crossed again after clearing" 2
    (Shard.high_crossings shard);
  Alcotest.(check int) "peak depth tracked" 8 (Shard.peak_depth shard);
  ignore (Shard.service shard ~budget:max_int hist);
  Alcotest.(check int) "garbage drains as ingest errors" 11
    (Shard.ingest_err shard);
  Alcotest.(check int) "accounting survives garbage"
    (Shard.offered shard)
    (Shard.shed_count shard + Shard.drained shard + Shard.depth shard)

(* --- tracker routing ----------------------------------------------------- *)

let make_cluster ?(shards = 2) ?pending_cap () =
  let modules = Hashtbl.create 4 in
  let arr =
    Array.init shards (fun id ->
        Shard.create ~id ~capacity:64 ~shed:Shard.Drop_oldest ~modules ())
  in
  (arr, Router.create ?pending_cap arr modules)

let service_all shards =
  let hist = latency_hist () in
  Array.iter (fun s -> ignore (Shard.service s ~budget:max_int hist)) shards

let test_router_holds_then_routes_success () =
  let _, c = Lazy.force fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let success = List.hd c.Corpus.Runner.successful in
  let shards, router = make_cluster () in
  Router.route router (Wire.encode (real_envelope (Wire.Success success)));
  Alcotest.(check int) "success held while unrouted" 1
    (Router.pending_held router);
  Router.route router
    (Wire.encode (real_envelope ~endpoint:1 (Wire.Failing failing)));
  Alcotest.(check int) "held success released by the route" 0
    (Router.pending_held router);
  service_all shards;
  let buckets =
    Array.to_list shards
    |> List.concat_map (fun s -> Collector.buckets (Shard.collector s))
  in
  (match buckets with
  | [ b ] ->
    Alcotest.(check int) "failing landed" 1 (Collector.failing_kept b);
    Alcotest.(check int) "success followed it to the same shard" 1
      (Collector.success_kept b)
  | bs -> Alcotest.failf "expected 1 bucket, got %d" (List.length bs));
  Alcotest.(check int) "router received both" 2 (Router.received router)

let test_router_forwards_malformed () =
  (* The tracker never swallows a packet: garbage is hashed on raw bytes
     and forwarded so the owning shard's collector counts the error. *)
  let shards, router = make_cluster () in
  Router.route router (Bytes.of_string "not a packet");
  Alcotest.(check int) "malformed counted at the tracker" 1
    (Router.malformed router);
  Alcotest.(check int) "still forwarded" 1
    (Array.fold_left (fun a s -> a + Shard.offered s) 0 shards);
  service_all shards;
  let errors =
    Array.fold_left
      (fun a s -> a + (Collector.totals (Shard.collector s)).Collector.decode_errors)
      0 shards
  in
  Alcotest.(check int) "shard collector is the source of truth" 1 errors

let test_router_pending_pool_bounded () =
  let _, c = Lazy.force fixture in
  let success = List.hd c.Corpus.Runner.successful in
  let _, router = make_cluster ~pending_cap:2 () in
  for i = 1 to 5 do
    Router.route router
      (Wire.encode
         (real_envelope
            (Wire.Success { success with Report.trigger_time_ns = i })))
  done;
  Alcotest.(check int) "pool capped" 2 (Router.pending_held router);
  Alcotest.(check int) "evictions counted" 3 (Router.pending_dropped router)

(* --- traffic generator --------------------------------------------------- *)

let test_traffic_deterministic () =
  (* Everything is a pure function of seed: two generators with the same
     seed emit byte-identical streams, tick after tick. *)
  let bug, _ = Lazy.force fixture in
  let mk () = Traffic.create ~seed:7 ~endpoints:5 ~churn:true [ bug ] in
  let a = mk () and b = mk () in
  for _ = 1 to 2 * Traffic.diurnal_period do
    let ba = Traffic.tick a and bb = Traffic.tick b in
    Alcotest.(check bool) "identical packet streams" true
      (ba.Traffic.packets = bb.Traffic.packets);
    Alcotest.(check bool) "load is a probability" true
      (ba.Traffic.load >= 0.0 && ba.Traffic.load <= 1.0)
  done;
  Alcotest.(check int) "same survivor count" (Traffic.alive a)
    (Traffic.alive b)

let test_traffic_diurnal_produces_load () =
  let bug, _ = Lazy.force fixture in
  let t = Traffic.create ~seed:3 ~endpoints:8 [ bug ] in
  let offered = ref 0 in
  for _ = 1 to 2 * Traffic.diurnal_period do
    offered := !offered + (Traffic.tick t).Traffic.offered
  done;
  Alcotest.(check bool) "two simulated days produce traffic" true
    (!offered > 0);
  Alcotest.(check int) "no churn: the fleet is intact" 8 (Traffic.alive t)

(* --- end-to-end deployment ----------------------------------------------- *)

let small_cfg =
  {
    Deploy.default_config with
    Deploy.endpoints = 6;
    duration_ticks = 8;
    shards = 2;
  }

let check_clean name (s : Deploy.summary) =
  Alcotest.(check bool) (name ^ ": incremental == batch on every bucket")
    true s.Deploy.agree;
  Alcotest.(check bool) (name ^ ": accounting reconciles") true
    s.Deploy.accounted;
  Alcotest.(check int) (name ^ ": final drain left nothing") 0
    s.Deploy.leftover_queue

let test_stream_end_to_end () =
  let bug, _ = Lazy.force fixture in
  let ticks = ref [] in
  let s =
    Deploy.run ~tick:(fun p -> ticks := p :: !ticks) small_cfg [ bug ]
  in
  check_clean "e2e" s;
  Alcotest.(check int) "one bucket for one bug" 1 s.Deploy.bucket_count;
  (match s.Deploy.rows with
  | [ r ] ->
    Alcotest.(check bool) "diagnosed" true (r.Deploy.top_pattern <> None);
    Alcotest.(check bool) "root cause matches ground truth" true
      r.Deploy.root_cause_match;
    Alcotest.(check bool) "the endpoints were deduped" true
      (r.Deploy.endpoints_hit > 1)
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  Alcotest.(check bool) "p99 >= p50" true
    (s.Deploy.latency_p99_ns >= s.Deploy.latency_p50_ns);
  Alcotest.(check bool) "throughput measured" true
    (s.Deploy.reports_per_sec > 0.0);
  (* the ?tick hook fired once per tick, with monotone cumulative counts *)
  let ticks = List.rev !ticks in
  Alcotest.(check int) "tick hook fired once per tick"
    small_cfg.Deploy.duration_ticks (List.length ticks);
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      a.Deploy.p_offered <= b.Deploy.p_offered
      && a.Deploy.p_drained <= b.Deploy.p_drained
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "offered/drained monotone across ticks" true
    (monotone ticks);
  let line = Deploy.watch_line (List.hd (List.rev ticks)) in
  Alcotest.(check bool)
    (Printf.sprintf "watch line renders (%s)" line)
    true
    (String.length line > 0
    && String.sub line 0 8 = "[stream]"
    && String.length line < 200)

let test_stream_overload_sheds_but_agrees () =
  (* One shard, many endpoints: the queue saturates and sheds, but what
     does get diagnosed still matches the batch and the accounting still
     closes. *)
  let bug, _ = Lazy.force fixture in
  let s =
    Deploy.run
      {
        Deploy.default_config with
        Deploy.endpoints = 48;
        duration_ticks = 8;
        shards = 1;
        queue_capacity = 32;
        drain_per_tick = 8;
      }
      [ bug ]
  in
  check_clean "overload" s;
  Alcotest.(check bool) "overload shed something" true (s.Deploy.shed > 0);
  Alcotest.(check bool) "shed ratio in (0, 1)" true
    (s.Deploy.shed_ratio > 0.0 && s.Deploy.shed_ratio < 1.0);
  Alcotest.(check bool) "high watermark crossed" true
    (s.Deploy.watermark_highs >= 1)

let test_stream_churn () =
  let bug, _ = Lazy.force fixture in
  let s =
    Deploy.run
      { small_cfg with Deploy.churn = true; duration_ticks = 24; seed = 11 }
      [ bug ]
  in
  check_clean "churn" s;
  Alcotest.(check int) "population closes: initial + joins - leaves - crashes"
    (small_cfg.Deploy.endpoints + s.Deploy.joins - s.Deploy.leaves
   - s.Deploy.crashes)
    s.Deploy.final_endpoints

let test_stream_all_fault_classes () =
  (* The acceptance sweep: every chaos fault class runs against the
     streaming path without breaking the incremental==batch equivalence,
     the accounting invariant, or the final drain. *)
  let bug, _ = Lazy.force fixture in
  List.iter
    (fun cls ->
      let name = Chaos.Fault.name cls in
      let s =
        Deploy.run
          {
            small_cfg with
            Deploy.endpoints = 4;
            duration_ticks = 6;
            fault = Some cls;
            seed = 5;
          }
          [ bug ]
      in
      check_clean name s)
    Chaos.Fault.all

let test_stream_churn_parallel_identical () =
  (* The service-plane determinism claim: one worker domain per shard
     must replay exactly the inline per-shard operation sequence, so a
     seeded churn scenario produces byte-identical results whatever the
     domain count.  One baseline reproduction shared across both runs —
     prepare is the expensive part and must not differ either. *)
  let bug, _ = Lazy.force fixture in
  let cfg =
    { small_cfg with Deploy.churn = true; duration_ticks = 24; seed = 11 }
  in
  let baselines = Traffic.prepare [ bug ] in
  let inline =
    Deploy.run ~baselines { cfg with Deploy.shard_domains = 1 } [ bug ]
  in
  let par =
    Deploy.run ~baselines { cfg with Deploy.shard_domains = 4 } [ bug ]
  in
  check_clean "churn inline" inline;
  check_clean "churn 4 domains" par;
  Alcotest.(check int) "inline mode spawned no workers" 0
    inline.Deploy.domains_used;
  Alcotest.(check bool) "parallel mode spawned workers" true
    (par.Deploy.domains_used >= 1);
  Alcotest.(check bool) "bucket tables identical across domain counts" true
    (inline.Deploy.rows = par.Deploy.rows);
  Alcotest.(check int) "offered identical" inline.Deploy.offered
    par.Deploy.offered;
  Alcotest.(check int) "shed identical" inline.Deploy.shed par.Deploy.shed;
  Alcotest.(check int) "drained identical" inline.Deploy.drained
    par.Deploy.drained;
  Alcotest.(check int) "one latency pair per shard" cfg.Deploy.shards
    (Array.length par.Deploy.shard_latency);
  Array.iter
    (fun (p50, p99) ->
      Alcotest.(check bool) "per-shard p99 >= p50 >= 0" true
        (p99 >= p50 && p50 >= 0.0))
    par.Deploy.shard_latency

let test_stream_fault_classes_parallel_identical () =
  (* Every chaos fault class, inline vs shard-per-domain: same seeded
     scenario, same bucket table and accounting totals. *)
  let bug, _ = Lazy.force fixture in
  let baselines = Traffic.prepare [ bug ] in
  List.iter
    (fun cls ->
      let name = Chaos.Fault.name cls in
      let cfg =
        {
          small_cfg with
          Deploy.endpoints = 4;
          duration_ticks = 6;
          fault = Some cls;
          seed = 5;
        }
      in
      let inline =
        Deploy.run ~baselines { cfg with Deploy.shard_domains = 1 } [ bug ]
      in
      let par =
        Deploy.run ~baselines { cfg with Deploy.shard_domains = 4 } [ bug ]
      in
      check_clean (name ^ " under 4 domains") par;
      Alcotest.(check bool)
        (name ^ ": rows identical across domain counts")
        true
        (inline.Deploy.rows = par.Deploy.rows);
      Alcotest.(check int) (name ^ ": shed identical") inline.Deploy.shed
        par.Deploy.shed)
    Chaos.Fault.all

let test_prepare_lane_width_invisible () =
  (* [prepare] fans the baseline reproductions one bug per lane: the
     baselines it hands the deployment must not depend on the width. *)
  let bugs = List.map Corpus.Registry.find_exn [ "pbzip2-1"; "aget-1" ] in
  let cfg = { small_cfg with Deploy.seed = 3 } in
  let run jobs =
    Deploy.run ~baselines:(Traffic.prepare ~jobs bugs) cfg bugs
  in
  let seq = run 1 and par = run 4 in
  check_clean "prepare ~jobs:4" par;
  Alcotest.(check bool) "rows identical across lane widths" true
    (seq.Deploy.rows = par.Deploy.rows);
  Alcotest.(check int) "offered identical" seq.Deploy.offered
    par.Deploy.offered;
  Alcotest.(check int) "shed identical" seq.Deploy.shed par.Deploy.shed;
  Alcotest.(check int) "drained identical" seq.Deploy.drained
    par.Deploy.drained

(* The streaming fleet's decodes are its working set: run the eval set
   once, push twice the shared cache's capacity of one-shot decodes
   through it (a fix sweep's diagnoses between ticks), and the same
   stream again must decode nothing. *)
let test_working_set_survives_scan () =
  let bugs = Corpus.Registry.eval_set in
  let baselines = Traffic.prepare ~jobs:1 bugs in
  let cfg = { small_cfg with Deploy.endpoints = 12; duration_ticks = 12 } in
  let cache = Pt.Decode_cache.shared in
  let first = Deploy.run ~baselines cfg bugs in
  check_clean "first run" first;
  let one_shot =
    {
      Pt.Decoder.steps = [||];
      lost_bytes = 0;
      desynced = false;
      thread_ended = false;
    }
  in
  for n = 1 to 2 * Pt.Decode_cache.capacity cache do
    let k = Digest.string (Printf.sprintf "one-shot decode %d" n) in
    if Pt.Decode_cache.find cache k = None then
      Pt.Decode_cache.add cache k one_shot
  done;
  let before = Pt.Decode_cache.stats cache in
  let second = Deploy.run ~baselines cfg bugs in
  let after = Pt.Decode_cache.stats cache in
  check_clean "second run" second;
  Alcotest.(check bool) "same buckets" true (first.Deploy.rows = second.Deploy.rows);
  Alcotest.(check bool) "the second run probed the cache" true
    (after.Pt.Decode_cache.hits > before.Pt.Decode_cache.hits);
  Alcotest.(check int) "no decode misses on the second run" 0
    (after.Pt.Decode_cache.misses - before.Pt.Decode_cache.misses)

let test_stream_rejects_bad_config () =
  let bug, _ = Lazy.force fixture in
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Stream.Deploy.run: shards < 1") (fun () ->
      ignore (Deploy.run { small_cfg with Deploy.shards = 0 } [ bug ]));
  Alcotest.check_raises "duration < 1"
    (Invalid_argument "Stream.Deploy.run: duration_ticks < 1") (fun () ->
      ignore (Deploy.run { small_cfg with Deploy.duration_ticks = 0 } [ bug ]));
  Alcotest.check_raises "shard_domains < 1"
    (Invalid_argument "Stream.Deploy.run: shard_domains < 1") (fun () ->
      ignore (Deploy.run { small_cfg with Deploy.shard_domains = 0 } [ bug ]))

let tests =
  [
    ( "stream.incremental",
      [
        Alcotest.test_case "equals batch, one shot" `Quick
          test_incremental_equals_batch;
        Alcotest.test_case "equals batch, interleaved snapshots" `Quick
          test_incremental_equals_batch_interleaved;
        Alcotest.test_case "incremental == batch, every bug shuffled" `Quick
          test_incremental_equals_batch_every_bug;
        Alcotest.test_case "no diagnosis before a failing report" `Quick
          test_incremental_none_before_failing;
      ] );
    ( "stream.shard",
      [
        Alcotest.test_case "drop-oldest keeps the freshest" `Quick
          test_shard_drop_oldest_keeps_freshest;
        Alcotest.test_case "drop-newest keeps the backlog" `Quick
          test_shard_drop_newest_keeps_backlog;
        Alcotest.test_case "watermarks warn, clear, warn again" `Quick
          test_shard_watermarks;
      ] );
    ( "stream.router",
      [
        Alcotest.test_case "early success held then routed" `Quick
          test_router_holds_then_routes_success;
        Alcotest.test_case "malformed packets forwarded, not swallowed" `Quick
          test_router_forwards_malformed;
        Alcotest.test_case "pending pool bounded" `Quick
          test_router_pending_pool_bounded;
      ] );
    ( "stream.traffic",
      [
        Alcotest.test_case "pure function of seed" `Quick
          test_traffic_deterministic;
        Alcotest.test_case "diurnal load produces traffic" `Quick
          test_traffic_diurnal_produces_load;
        Alcotest.test_case "prepare identical across lane widths" `Quick
          test_prepare_lane_width_invisible;
      ] );
    ( "stream.deploy",
      [
        Alcotest.test_case "end-to-end streaming diagnosis" `Quick
          test_stream_end_to_end;
        Alcotest.test_case "overload sheds but still agrees" `Quick
          test_stream_overload_sheds_but_agrees;
        Alcotest.test_case "churn keeps the population honest" `Quick
          test_stream_churn;
        Alcotest.test_case "all nine fault classes pass" `Quick
          test_stream_all_fault_classes;
        Alcotest.test_case "churn identical across domain counts" `Quick
          test_stream_churn_parallel_identical;
        Alcotest.test_case "fault classes identical across domain counts"
          `Quick test_stream_fault_classes_parallel_identical;
        Alcotest.test_case "bad config rejected" `Quick
          test_stream_rejects_bad_config;
        Alcotest.test_case "working set survives a one-shot scan" `Quick
          test_working_set_survives_scan;
      ] );
  ]
