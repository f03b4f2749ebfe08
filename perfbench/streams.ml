(* The stream workload: the long-lived [Stream] service driven tick by
   tick through its public modules — [Traffic.tick] -> [Router.route] ->
   [Service.service_all] — exactly the loop [Stream.Deploy.run] runs,
   which the checks hold it to.

   One tick is in flight at a time (a closed loop in wall time); the
   load each tick offers is fixed by the seed.  A run is a series of
   episodes, each a fresh service over a fixed number of ticks with its
   own seed; [Main.drive] repeats them until the time budget is
   spent. *)

module Traffic = Stream.Traffic
module Router = Stream.Router
module Shard = Stream.Shard
module Service = Stream.Service
module Incremental = Stream.Incremental
module Collector = Fleet.Collector
module Core = Snorlax_core

(* The steady fleet: many endpoints on the 11 evaluation bugs, so the
   decode cache mostly hits and [Incremental] mostly takes its fast
   path.  One simulated day per episode; queue [capacity] and the drain
   [budget] per shard and tick are sized so that nothing is shed. *)
let bugs = Corpus.Registry.eval_set
let endpoints = 48
let ticks = Traffic.diurnal_period
let nshards = 4
let capacity = 1024
let budget = 256

let config ~seed =
  {
    Stream.Deploy.endpoints;
    duration_ticks = ticks;
    shards = nshards;
    shard_domains = 1;
    churn = true;
    fault = None;
    seed;
    shed = Shard.Drop_oldest;
    queue_capacity = capacity;
    drain_per_tick = budget;
  }

type env = {
  baselines : Traffic.baseline list;
  modules : (string, Corpus.Bug.built) Hashtbl.t;
}

(* Baseline reproduction and the server's module builds: the work the
   service does once, before the first tick. *)
let setup () =
  let baselines = Traffic.prepare ~jobs:1 bugs in
  let modules = Hashtbl.create 64 in
  List.iter
    (fun (b : Corpus.Bug.t) ->
      let built = b.Corpus.Bug.build () in
      Lir.Irmod.layout built.Corpus.Bug.m;
      Hashtbl.replace modules b.Corpus.Bug.id built)
    bugs;
  { baselines; modules }

type report = { rid : int; released : float; mutable arrival : float }

type episode = {
  seed : int;
  shards : Shard.t array;
  router : Router.t;
  offered : int;  (** packets the generator emitted *)
  unrouted : int;  (** reports the router still held, or dropped, at the end *)
}

type acc = {
  mutable episodes : int;
  mutable errors : string list;  (** failed checks, newest first *)
  mutable malformed : int;
  mutable fast_updates : int;
  mutable rederives : int;
  mutable offered : int;
  mutable drained : int;
  mutable shed : int;
  mutable ingest_errors : int;
  mutable unrouted : int;
  mutable stream_ns : float;
  mutable wire_bytes : int;
  mutable peak_depth : int;
  mutable next_rid : int;
  latency : Samples.t;  (** tick release -> end of the round that folded it *)
  rates : Samples.t;  (** per episode: reports drained per second *)
  queue_wait : Samples.t;  (** router arrival -> start of the draining round *)
  shard_offered : int array;
  mutable sample_packets : bytes list;  (** kept for the wire probe *)
}

let acc () =
  {
    episodes = 0;
    errors = [];
    malformed = 0;
    fast_updates = 0;
    rederives = 0;
    offered = 0;
    drained = 0;
    shed = 0;
    ingest_errors = 0;
    unrouted = 0;
    stream_ns = 0.;
    wire_bytes = 0;
    peak_depth = 0;
    next_rid = 0;
    latency = Samples.create ();
    rates = Samples.create ();
    queue_wait = Samples.create ();
    shard_offered = Array.make nshards 0;
    sample_packets = [];
  }

let episode_seed seed k = Hashtbl.hash (seed, k)

let run_episode env ~seed acc =
  let traffic =
    Traffic.create ~seed ~endpoints ~churn:true ~baselines:env.baselines bugs
  in
  let shards =
    Array.init nshards (fun id ->
        Shard.create ~id ~capacity ~shed:Shard.Drop_oldest
          ~modules:env.modules ())
  in
  let latency =
    Array.init nshards (fun _ ->
        Obs.Metrics.histogram (Obs.Metrics.create ()) "latency_ns")
  in
  let svc = Service.create ~shards ~latency ~domains:1 in
  Fun.protect ~finally:(fun () -> Service.stop svc) @@ fun () ->
  (* The benchmark's mirror of every shard queue, fed by a recording
     [offer] wrapper.  [routing] is the packet being routed right now; a
     success the router holds back waits in [held] until a new route
     releases it. *)
  let mirror = Array.init nshards (fun _ -> Queue.create ()) in
  let routing = ref None and held = ref [] in
  let offer idx ~arrival pkt =
    let r =
      match !routing with
      | Some (p, r) when p == pkt ->
        routing := None;
        r
      | _ ->
        let _, r = List.find (fun (p, _) -> p == pkt) !held in
        held := List.filter (fun (p, _) -> p != pkt) !held;
        r
    in
    r.arrival <- arrival;
    Queue.push r mirror.(idx);
    Service.offer svc idx ~arrival pkt
  in
  let router = Router.create ~offer shards env.modules in
  let seen_shed = Array.make nshards 0 and seen_drained = Array.make nshards 0 in
  let round () =
    let sp = Trace.start "stream.shard" in
    let t_start = Trace.now () in
    Service.service_all svc ~budget;
    let t_end = Trace.now () in
    Trace.finish sp;
    let carried = ref [] in
    Array.iteri
      (fun i s ->
        (* Queues are FIFO and drop-oldest evicts the head: the reports
           shed since the last round are the mirror's oldest, the ones
           drained this round come next. *)
        for _ = 1 to Shard.shed_count s - seen_shed.(i) do
          ignore (Queue.pop mirror.(i))
        done;
        for _ = 1 to Shard.drained s - seen_drained.(i) do
          let r = Queue.pop mirror.(i) in
          Samples.add acc.latency (t_end -. r.released);
          Samples.add acc.queue_wait (t_start -. r.arrival);
          carried := r.rid :: !carried
        done;
        seen_shed.(i) <- Shard.shed_count s;
        seen_drained.(i) <- Shard.drained s;
        acc.peak_depth <- max acc.peak_depth (Shard.peak_depth s))
      shards;
    Trace.set_reqs sp !carried
  in
  let offered = ref 0 in
  let t0 = Trace.now () in
  for _ = 1 to ticks do
    let sp = Trace.start "stream.traffic" in
    let batch = Traffic.tick traffic in
    Trace.finish sp;
    let released = Trace.now () in
    let first = acc.next_rid in
    offered := !offered + batch.Traffic.offered;
    List.iter
      (fun pkt ->
        let r = { rid = acc.next_rid; released; arrival = nan } in
        acc.next_rid <- acc.next_rid + 1;
        acc.wire_bytes <- acc.wire_bytes + Bytes.length pkt;
        routing := Some (pkt, r);
        Trace.with_ ~req:r.rid "stream.router" (fun () -> Router.route router pkt);
        match !routing with
        | Some held_back ->
          held := held_back :: !held;
          routing := None
        | None -> ())
      batch.Traffic.packets;
    if Trace.enabled () then begin
      Trace.set_reqs sp (List.init batch.Traffic.offered (fun i -> first + i));
      if List.length acc.sample_packets < 2000 then
        acc.sample_packets <- batch.Traffic.packets @ acc.sample_packets
    end;
    round ()
  done;
  (* The fleet goes quiet: drain what is left. *)
  let depth () = Array.fold_left (fun a s -> a + Shard.depth s) 0 shards in
  let guard = ref ((capacity * nshards) + 1) in
  while depth () > 0 && !guard > 0 do
    round ();
    decr guard
  done;
  Service.stop svc;
  let ns = Trace.now () -. t0 in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 shards in
  acc.stream_ns <- acc.stream_ns +. ns;
  Samples.close acc.latency;
  Samples.add_unit acc.rates ~from:t0 (float_of_int (sum Shard.drained) /. (ns /. 1e9));
  acc.offered <- acc.offered + !offered;
  acc.drained <- acc.drained + sum Shard.drained;
  acc.shed <- acc.shed + sum Shard.shed_count;
  acc.ingest_errors <- acc.ingest_errors + sum Shard.ingest_err;
  acc.unrouted <- acc.unrouted + List.length !held;
  Array.iteri
    (fun i s -> acc.shard_offered.(i) <- acc.shard_offered.(i) + Shard.offered s)
    shards;
  { seed; shards; router; offered = !offered; unrouted = List.length !held }

(* --- checks ---------------------------------------------------------- *)

let scored_key (l : Core.Statistics.scored list) =
  List.map
    (fun (s : Core.Statistics.scored) ->
      ( Core.Patterns.id s.Core.Statistics.pattern,
        s.Core.Statistics.f1,
        s.Core.Statistics.present_in_failing,
        s.Core.Statistics.present_in_successful ))
    l

(* Accounting on every episode as soon as it ends, and incremental-vs-
   batch agreement for every bucket of every fourth episode; the layer
   counters are read here too, so no episode has to be kept. *)
let check_episode acc ep ~diagnose =
  let err fmt =
    Printf.ksprintf (fun s -> acc.errors <- Printf.sprintf "episode %d: %s" ep.seed s :: acc.errors) fmt
  in
  let sum f = Array.fold_left (fun a s -> a + f s) 0 ep.shards in
  Array.iter
    (fun s ->
      if
        Shard.offered s <> Shard.shed_count s + Shard.drained s + Shard.depth s
        || Shard.depth s <> 0
      then err "shard accounting broken";
      List.iter
        (fun b ->
          match Shard.engine s b with
          | Some e -> (
            acc.fast_updates <- acc.fast_updates + Incremental.fast_updates e;
            acc.rederives <- acc.rederives + Incremental.rederives e;
            if diagnose then
              let batch = Collector.diagnose (Shard.collector s) b in
              match Incremental.results e with
              | Some snap
                when scored_key snap.Incremental.scored
                     = scored_key batch.Core.Diagnosis.scored ->
                ()
              | _ -> err "incremental result differs from batch")
          | None -> err "bucket has no engine")
        (Collector.buckets (Shard.collector s)))
    ep.shards;
  let at_router = Router.pending_held ep.router + Router.pending_dropped ep.router in
  if ep.offered <> sum Shard.offered + at_router || ep.unrouted <> at_router then
    err "packets lost between generator and shards";
  acc.malformed <- acc.malformed + Router.malformed ep.router

type row = {
  r_shard : int;
  r_bug : string;
  r_signature : string;
  r_endpoints : int;
  r_failing : int;
  r_success : int;
  r_top : string option;
  r_rederives : int;
  r_fast : int;
}

let rows ep =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun idx s ->
            List.map
              (fun (b : Collector.bucket) ->
                let snap = Option.bind (Shard.engine s b) Incremental.results in
                {
                  r_shard = idx;
                  r_bug = b.Collector.signature.Fleet.Signature.bug_id;
                  r_signature = Fleet.Signature.to_string b.Collector.signature;
                  r_endpoints = List.length b.Collector.endpoints;
                  r_failing = Collector.failing_kept b;
                  r_success = Collector.success_kept b;
                  r_top =
                    Option.bind snap (fun (sn : Incremental.snapshot) ->
                        Option.map
                          (fun (t : Core.Statistics.scored) ->
                            Core.Patterns.id t.Core.Statistics.pattern)
                          sn.Incremental.top);
                  r_rederives =
                    (match snap with Some sn -> sn.Incremental.rederives | None -> 0);
                  r_fast =
                    (match snap with Some sn -> sn.Incremental.fast_updates | None -> 0);
                })
              (Collector.buckets (Shard.collector s)))
          ep.shards))

let deploy_rows (s : Stream.Deploy.summary) =
  List.map
    (fun (r : Stream.Deploy.bucket_row) ->
      {
        r_shard = r.Stream.Deploy.shard;
        r_bug = r.Stream.Deploy.bug_id;
        r_signature = r.Stream.Deploy.signature;
        r_endpoints = r.Stream.Deploy.endpoints_hit;
        r_failing = r.Stream.Deploy.failing_kept;
        r_success = r.Stream.Deploy.success_kept;
        r_top = r.Stream.Deploy.top_pattern;
        r_rederives = r.Stream.Deploy.rederives;
        r_fast = r.Stream.Deploy.fast_updates;
      })
    s.Stream.Deploy.rows

(* The first episode replayed through [Stream.Deploy.run] must give the
   same bucket rows, so this loop cannot drift from the product. *)
let check_deploy env acc ep =
  let s =
    Stream.Deploy.run ~baselines:env.baselines (config ~seed:ep.seed) bugs
  in
  if deploy_rows s <> rows ep || s.Stream.Deploy.offered <> ep.offered then
    acc.errors <-
      Printf.sprintf "episode %d: differs from Stream.Deploy.run" ep.seed
      :: acc.errors

(* One measured unit: the next episode — one simulated day — with its
   own seed.  The checks after it are off the clock and off the record;
   the first episode is also replayed through [Stream.Deploy.run].
   Returns the episode's streaming time (ns). *)
let episode env ~seed acc =
  let before = acc.stream_ns in
  let ep = run_episode env ~seed:(episode_seed seed acc.episodes) acc in
  Trace.quiet (fun () ->
      check_episode acc ep ~diagnose:(acc.episodes mod 4 = 0);
      if acc.episodes = 0 then check_deploy env acc ep);
  acc.episodes <- acc.episodes + 1;
  acc.stream_ns -. before

(* One message per failed check. *)
let check acc = List.rev acc.errors

let failed acc = acc.shed + acc.ingest_errors + acc.unrouted

(* --- metrics --------------------------------------------------------- *)

let e2e acc =
  [
    Out.rate "reports_per_s" acc.rates ~ops:acc.drained ~ns:acc.stream_ns;
    Out.timing "report_latency_p50_ms" acc.latency 50.;
    Out.timing "report_latency_p99_ms" acc.latency 99.;
  ]

let per_ns name = Trace.total_ns name /. float_of_int (max 1 (Trace.count name))

(* Wire costs are inside [Traffic.tick] and [Router.route]; time them
   on a sample of the traced run's packets, after its window. *)
let wire_probe acc =
  let enc = ref 0. and dec = ref 0. and n = ref 0 in
  List.iter
    (fun pkt ->
      let t0 = Trace.now () in
      match Fleet.Wire.decode pkt with
      | Ok env ->
        let t1 = Trace.now () in
        ignore (Fleet.Wire.encode env);
        enc := !enc +. (Trace.now () -. t1);
        dec := !dec +. (t1 -. t0);
        incr n
      | Error _ -> ())
    acc.sample_packets;
  let per x = if !n = 0 then 0. else x /. float_of_int !n /. 1e3 in
  (per !enc, per !dec)

let layers acc =
  let mean_offered =
    float_of_int (Array.fold_left ( + ) 0 acc.shard_offered) /. float_of_int nshards
  in
  let max_offered = float_of_int (Array.fold_left max 0 acc.shard_offered) in
  let encode_us, decode_us = wire_probe acc in
  let packets = max 1 acc.next_rid in
  [
    ("stream.traffic.tick_ms", per_ns "stream.traffic" /. 1e6, "ms");
    ("stream.router.route_us", per_ns "stream.router" /. 1e3, "us");
    ("stream.router.malformed", float_of_int acc.malformed, "count");
    ("stream.shard.service_ms", per_ns "stream.shard" /. 1e6, "ms");
    ("stream.shard.queue_wait_p50_ms", Samples.percentile acc.queue_wait 50. /. 1e6, "ms");
    ("stream.shard.queue_wait_p99_ms", Samples.percentile acc.queue_wait 99. /. 1e6, "ms");
    ("stream.shard.shed", float_of_int acc.shed, "count");
    ("stream.shard.peak_depth", float_of_int acc.peak_depth, "count");
    ( "stream.shard.load_skew",
      (if mean_offered > 0. then max_offered /. mean_offered else 0.),
      "ratio" );
    ("stream.incremental.fast_updates", float_of_int acc.fast_updates, "count");
    ("stream.incremental.rederives", float_of_int acc.rederives, "count");
    ("fleet.wire.encode_us", encode_us, "us");
    ("fleet.wire.decode_us", decode_us, "us");
    ( "fleet.wire.bytes_per_packet",
      float_of_int acc.wire_bytes /. float_of_int packets,
      "bytes" );
  ]
