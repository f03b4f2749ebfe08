module Core = Snorlax_core

type bucket_row = {
  bug_id : string;
  signature : string;
  endpoints_hit : int;
  failing_kept : int;
  failing_dropped : int;
  success_kept : int;
  success_dropped : int;
  wire_bytes : int;
  qualifiers : string list;
  top_pattern : string option;
  top_describe : string option;
  f1 : float;
  root_cause_match : bool;
  ordering_accuracy : float;
  diagnosis_ns : float;
}

type summary = {
  endpoints : int;
  scenarios : int;
  shipped : int;
  wire_bytes : int;
  decode_errors : int;
  unrouted : int;
  bucket_count : int;
  dedup_ratio : float;
  rows : bucket_row list;
  collect_ns : float;
  diagnosis_ns : float;
  total_ns : float;
  latency_p50_ns : float;
  latency_p99_ns : float;
}

type progress = {
  tick_endpoint : int;
  tick_bug : string;
  tick_shipped : int;
  tick_elapsed_ns : float;
}

let now = Obs.Span.wall_clock_ns

(* The [--watch] snapshot line: fleet throughput plus the ingest/decode
   stage percentiles read back from the ambient registry mid-run.  Lives
   here (not in bin/) so the formatting is unit-testable. *)
let watch_line (p : progress) =
  let secs = p.tick_elapsed_ns /. 1e9 in
  let rate =
    if secs > 0.0 then float_of_int p.tick_shipped /. secs else 0.0
  in
  let counter name =
    match Obs.Scope.current () with
    | Some c ->
      Option.value ~default:0 (Obs.Metrics.find_counter c.Obs.Scope.metrics name)
    | None -> 0
  in
  let stage name =
    match Obs.Scope.current () with
    | None -> "-"
    | Some c -> (
      match Obs.Metrics.find_histogram c.Obs.Scope.metrics name with
      | Some (h : Obs.Metrics.hstats) when h.Obs.Metrics.count > 0 ->
        Printf.sprintf "%.0f/%.0fus"
          (h.Obs.Metrics.p50 /. 1e3)
          (h.Obs.Metrics.p99 /. 1e3)
      | _ -> "-")
  in
  let failing = counter "fleet/failing_kept" + counter "fleet/failing_dropped" in
  let buckets = counter "fleet/buckets" in
  let dedup =
    if buckets = 0 then 0.0 else float_of_int failing /. float_of_int buckets
  in
  Printf.sprintf
    "[watch] %s ep%d: %d packets (%.0f/s), dedup %.1f:1, ingest p50/p99 %s, \
     decode p50/p99 %s"
    p.tick_bug p.tick_endpoint p.tick_shipped rate dedup
    (stage "fleet/ingest_ns")
    (stage "pt/decode_ns")

let diagnose_bucket collector latency_hist (b : Collector.bucket) =
  let t0 = now () in
  let res = Collector.diagnose collector b in
  let t_done = now () in
  let dt = t_done -. t0 in
  (* Every report that waited in this bucket is only now actionable:
     its report->diagnosis latency closes at this instant. *)
  List.iter
    (fun arrival ->
      let l = t_done -. arrival in
      Obs.Metrics.observe latency_hist l;
      Obs.Scope.observe "fleet/report_to_diagnosis_ns" l)
    (Collector.arrivals b);
  let v = Collector.verdict collector b res.Core.Diagnosis.top in
  {
    bug_id = b.Collector.signature.Signature.bug_id;
    signature = Signature.to_string b.Collector.signature;
    endpoints_hit = List.length b.Collector.endpoints;
    failing_kept = Collector.failing_kept b;
    failing_dropped = Collector.failing_dropped b;
    success_kept = Collector.success_kept b;
    success_dropped = Collector.success_dropped b;
    wire_bytes = b.Collector.wire_bytes;
    qualifiers =
      List.map Collector.qualifier_to_string (Collector.qualifiers b);
    top_pattern = v.Collector.top_pattern;
    top_describe = v.Collector.top_describe;
    f1 = v.Collector.f1;
    root_cause_match = v.Collector.root_cause_match;
    ordering_accuracy = v.Collector.ordering_accuracy;
    diagnosis_ns = dt;
  }

let run ?policy ?config ?tick ~endpoints bugs =
  if endpoints < 1 then invalid_arg "Deploy.run: endpoints < 1";
  Obs.Scope.with_span "fleet"
    ~args:[ ("endpoints", Obs.Span.Int endpoints) ]
  @@ fun () ->
  let t0 = now () in
  let collector = Collector.create ?policy () in
  (* Latency accounting lives in a private histogram so the summary's
     p50/p99 exist even when no ambient scope is enabled (the bench path
     reads them from BENCH_fleet.json). *)
  let latency_reg = Obs.Metrics.create () in
  let latency_hist = Obs.Metrics.histogram latency_reg "latency_ns" in
  let shipped = ref 0 in
  List.iter
    (fun bug ->
      for e = 0 to endpoints - 1 do
        let s = Endpoint.run ~bug ~endpoint:e ?config () in
        List.iter
          (fun packet ->
            incr shipped;
            (* Malformed packets are counted by the collector; a fleet
               run keeps going when one endpoint ships garbage. *)
            ignore (Collector.ingest collector packet))
          s.Endpoint.packets;
        match tick with
        | Some f ->
          f
            {
              tick_endpoint = e;
              tick_bug = bug.Corpus.Bug.id;
              tick_shipped = !shipped;
              tick_elapsed_ns = now () -. t0;
            }
        | None -> ()
      done)
    bugs;
  let t_collected = now () in
  let rows =
    List.map
      (diagnose_bucket collector latency_hist)
      (Collector.buckets collector)
  in
  let t_done = now () in
  let totals = Collector.totals collector in
  let bucket_count = List.length rows in
  let dedup_ratio =
    if bucket_count = 0 then 0.0
    else float_of_int totals.Collector.failing_received /. float_of_int bucket_count
  in
  Obs.Scope.set_gauge "fleet/dedup_ratio" dedup_ratio;
  {
    endpoints;
    scenarios = List.length bugs;
    shipped = !shipped;
    wire_bytes = totals.Collector.wire_bytes;
    decode_errors = totals.Collector.decode_errors;
    unrouted = totals.Collector.unrouted;
    bucket_count;
    dedup_ratio;
    rows;
    collect_ns = t_collected -. t0;
    diagnosis_ns =
      List.fold_left (fun a (r : bucket_row) -> a +. r.diagnosis_ns) 0.0 rows;
    total_ns = t_done -. t0;
    latency_p50_ns = Obs.Metrics.percentile latency_hist ~p:50.0;
    latency_p99_ns = Obs.Metrics.percentile latency_hist ~p:99.0;
  }
