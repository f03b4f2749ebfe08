(* Benchmark and reproduction harness.

   Part 1 — Bechamel micro-benchmarks: one Test.make per table/figure of
   the paper, timing the computational kernel that experiment exercises
   (client run, trace decode, hybrid vs static points-to, full pipeline,
   monitored workloads, Gist planning).

   Part 2 — the full reproduction: prints every table and figure the
   paper's evaluation contains, with the paper's own numbers quoted for
   comparison.  `dune exec bench/main.exe` runs both; pass `--quick` to
   reduce the hypothesis sample count, `--decode-only`, `--fleet-only` or
   `--stream-only` to emit just that one BENCH artifact. *)

open Bechamel
open Toolkit

(* --- shared fixtures (prepared once, outside the timed sections) -------- *)

let pbzip_entry = lazy (Experiments.Eval_runs.get (Corpus.Registry.find_exn "pbzip2-1"))

let mysql_module =
  lazy
    (let built = (Corpus.Registry.find_exn "mysql-1").Corpus.Bug.build () in
     Lir.Irmod.layout built.Corpus.Bug.m;
     built.Corpus.Bug.m)

let failing_fixture =
  lazy
    (let e = Lazy.force pbzip_entry in
     let c = e.Experiments.Eval_runs.collected in
     let m = c.Corpus.Runner.built.Corpus.Bug.m in
     let first = List.hd c.Corpus.Runner.failing in
     (m, c, first))

let executed_fixture =
  lazy
    (let m, _, first = Lazy.force failing_fixture in
     let tp =
       Snorlax_core.Diagnosis.process_failing m ~config:Pt.Config.default first
     in
     (m, tp.Snorlax_core.Trace_processing.executed))

(* --- one micro-benchmark per table/figure -------------------------------- *)

(* Tables 1-3: the measurement unit is one reproduction attempt of a
   corpus bug under the timestamp instrumentation. *)
let bench_hypothesis_run =
  Test.make ~name:"tables1-3: instrumented client run (pbzip2-1)"
    (Staged.stage (fun () ->
         let e = Lazy.force pbzip_entry in
         let built = e.Experiments.Eval_runs.collected.Corpus.Runner.built in
         ignore (Corpus.Runner.run_untraced ~built ~entry:"main" ~seed:11 ())))

(* Table 4: hybrid (scope-restricted) vs whole-program points-to. *)
let bench_hybrid_pta =
  Test.make ~name:"table4: hybrid points-to (executed scope)"
    (Staged.stage (fun () ->
         let m, executed = Lazy.force executed_fixture in
         ignore
           (Analysis.Pointsto.analyze m ~scope:(fun iid ->
                Snorlax_core.Trace_processing.Iset.mem iid executed))))

let bench_static_pta =
  Test.make ~name:"table4: whole-program points-to"
    (Staged.stage (fun () ->
         ignore (Analysis.Pointsto.analyze_all (Lazy.force mysql_module))))

(* Figure 7 / section 6.1: the full server-side pipeline on one received
   failure report (steps 2-7). *)
let bench_pipeline =
  Test.make ~name:"fig7: full diagnosis pipeline (pbzip2-1)"
    (Staged.stage (fun () ->
         let m, c, _ = Lazy.force failing_fixture in
         ignore
           (Snorlax_core.Diagnosis.diagnose m ~config:Pt.Config.default
              ~failing:c.Corpus.Runner.failing
              ~successful:c.Corpus.Runner.successful)))

(* The decoder alone: steps 2-3 on the failing thread's ring snapshot. *)
let bench_decoder =
  Test.make ~name:"fig7: trace decode (failing thread ring)"
    (Staged.stage (fun () ->
         let m, _, first = Lazy.force failing_fixture in
         let _, bytes = List.hd first.Snorlax_core.Report.traces in
         ignore (Pt.Decoder.decode m ~config:Pt.Config.default bytes)))

(* Figure 8: one traced workload execution (the overhead numerator). *)
let bench_traced_workload =
  Test.make ~name:"fig8: traced throughput workload (memcached)"
    (Staged.stage (fun () ->
         let spec = Experiments.Workloads.find "memcached" in
         ignore
           (Experiments.Workloads.run_overhead spec ~threads:2 ~seed:3
              ~tracer_config:(Some Pt.Config.default) ~gist_costs:None)))

(* Figure 9: the Gist-instrumented counterpart. *)
let bench_gist_workload =
  Test.make ~name:"fig9: gist-instrumented workload (memcached)"
    (Staged.stage (fun () ->
         let spec = Experiments.Workloads.find "memcached" in
         ignore
           (Experiments.Workloads.run_overhead spec ~threads:2 ~seed:3
              ~tracer_config:None ~gist_costs:(Some Gist.default_costs))))

(* Section 6.3: Gist's slice planning per failure report. *)
let bench_gist_plan =
  Test.make ~name:"sec6.3: gist slice plan"
    (Staged.stage (fun () ->
         let m, executed = Lazy.force executed_fixture in
         let _, _, first = Lazy.force failing_fixture in
         let pta =
           Analysis.Pointsto.analyze m ~scope:(fun iid ->
               Snorlax_core.Trace_processing.Iset.mem iid executed)
         in
         ignore
           (Gist.plan m ~points_to:pta
              ~failing_iid:(Snorlax_core.Report.failing_anchor_iid first))))

let run_benchmarks () =
  let tests =
    [
      bench_hypothesis_run;
      bench_hybrid_pta;
      bench_static_pta;
      bench_pipeline;
      bench_decoder;
      bench_traced_workload;
      bench_gist_workload;
      bench_gist_plan;
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None
      ~stabilize:false ()
  in
  print_endline "=== Bechamel micro-benchmarks (one per table/figure) ===";
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
        |> Analyze.all ols Instance.monotonic_clock
      in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "  %-50s %12.0f ns/run\n%!" name ns)
        results)
    tests

(* --- part 2: the reproduction harness ------------------------------------ *)

let run_reproduction ~samples =
  print_endline "\n=== Paper reproduction: every table and figure ===";
  Experiments.Report.print_all ~samples ()

(* --- BENCH artifacts ------------------------------------------------------ *)

(* Write [json] to [path] and announce "[what] written to [path][detail]";
   a bench that cannot write its artifact fails with exit 1. *)
let write_artifact ?(detail = "") ~what path json =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Obs.Json.to_string json);
        Out_channel.output_char oc '\n')
  with
  | () -> Printf.printf "%s written to %s%s\n%!" what path detail
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" path msg;
    exit 1

(* --- part 3: pipeline telemetry artifact --------------------------------- *)

(* One instrumented diagnosis run, exported as a Chrome trace so a
   benchmark run leaves a profile artifact behind.  Runs before the timed
   sections and disables the scope afterwards, keeping the micro-benchmark
   loops on the telemetry-off fast path. *)
let emit_pipeline_trace () =
  (* Force the fixture first: its own reproduction runs (and any diagnosis
     they do) must not pollute the exported pipeline trace. *)
  let m, c, _ = Lazy.force failing_fixture in
  ignore (Obs.Scope.enable ());
  ignore
    (Snorlax_core.Diagnosis.diagnose m ~config:Pt.Config.default
       ~failing:c.Corpus.Runner.failing
       ~successful:c.Corpus.Runner.successful);
  let json = Option.get (Obs.Scope.export_chrome ()) in
  Obs.Scope.disable ();
  write_artifact ~what:"Pipeline trace" "BENCH_pipeline.json" json

(* --- part 4: fleet deployment artifact ----------------------------------- *)

(* A small simulated deployment, summarized as JSON: how many bytes the
   wire format needs, how well signature dedup collapses the fleet's
   reports, and how long the cross-endpoint diagnosis takes. *)
let emit_fleet_bench () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let s = Fleet.Deploy.run ~endpoints:6 [ bug ] in
  let top_f1, rc_match =
    match s.Fleet.Deploy.rows with
    | r :: _ -> (r.Fleet.Deploy.f1, r.Fleet.Deploy.root_cause_match)
    | [] -> (0.0, false)
  in
  let json =
    Obs.Json.Obj
      [
        ("endpoints", Obs.Json.Int s.Fleet.Deploy.endpoints);
        ("scenarios", Obs.Json.Int s.Fleet.Deploy.scenarios);
        ("reports_shipped", Obs.Json.Int s.Fleet.Deploy.shipped);
        ("wire_bytes", Obs.Json.Int s.Fleet.Deploy.wire_bytes);
        ("buckets", Obs.Json.Int s.Fleet.Deploy.bucket_count);
        ("dedup_ratio", Obs.Json.Float s.Fleet.Deploy.dedup_ratio);
        ("decode_errors", Obs.Json.Int s.Fleet.Deploy.decode_errors);
        ("unrouted", Obs.Json.Int s.Fleet.Deploy.unrouted);
        ("collect_ns", Obs.Json.Float s.Fleet.Deploy.collect_ns);
        ("diagnosis_ns", Obs.Json.Float s.Fleet.Deploy.diagnosis_ns);
        ("total_ns", Obs.Json.Float s.Fleet.Deploy.total_ns);
        ( "report_to_diagnosis_p50_ns",
          Obs.Json.Float s.Fleet.Deploy.latency_p50_ns );
        ( "report_to_diagnosis_p99_ns",
          Obs.Json.Float s.Fleet.Deploy.latency_p99_ns );
        ("top_f1", Obs.Json.Float top_f1);
        ("root_cause_match", Obs.Json.Bool rc_match);
      ]
  in
  write_artifact ~what:"Fleet summary" "BENCH_fleet.json" json

(* --- part 5: decode throughput artifact ---------------------------------- *)

(* The trace-processing stage dominates the pipeline (BENCH_pipeline.json
   puts it at ~96% of a diagnosis), so it gets its own artifact: the same
   report set decoded sequentially, with the domain pool, and against a
   warm memo cache.  The cache's own miss counter doubles as the decoder
   invocation count, which is how the cold/warm comparison is proved
   rather than inferred from wall time. *)
let emit_decode_bench () =
  let e = Lazy.force pbzip_entry in
  let c = e.Experiments.Eval_runs.collected in
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let failing = c.Corpus.Runner.failing in
  let successful = c.Corpus.Runner.successful in
  let reports = List.length failing + List.length successful in
  let traces =
    List.fold_left
      (fun n (r : Snorlax_core.Report.failing_report) ->
        n + List.length r.Snorlax_core.Report.traces)
      0 failing
    + List.fold_left
        (fun n (s : Snorlax_core.Report.success_report) ->
          n + List.length s.Snorlax_core.Report.s_traces)
        0 successful
  in
  let run ~jobs ~cache () =
    List.iter
      (fun r ->
        ignore
          (Snorlax_core.Diagnosis.process_failing ~jobs ~cache m
             ~config:Pt.Config.default r))
      failing;
    List.iter
      (fun s ->
        ignore
          (Snorlax_core.Diagnosis.process_successful ~jobs ~cache m
             ~config:Pt.Config.default s))
      successful
  in
  let time f =
    (* Best of 3: the artifact feeds bench-compare, so prefer the stable
       floor over a mean that inherits GC noise. *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Obs.Span.wall_clock_ns () in
      f ();
      best := Float.min !best (Obs.Span.wall_clock_ns () -. t0)
    done;
    !best
  in
  let no_cache = Pt.Decode_cache.create ~capacity:0 () in
  (* One decoder, cold, one trace at a time and under the batched pool
     at 4 jobs: their ratio is parallel scaling and nothing else.
     Engine speed is perfbench's pt.decoder.steps_per_s. *)
  let jobs = 4 in
  let seq_new_ns = time (run ~jobs:1 ~cache:no_cache) in
  let par_cold_ns = time (run ~jobs ~cache:no_cache) in
  (* Cold/warm split on a private cache: misses after the first pass are
     exactly the decoder invocations a cold server performs; misses added
     by the three timed identical passes are the warm-path invocations. *)
  let cache = Pt.Decode_cache.create ~capacity:1024 () in
  run ~jobs:1 ~cache ();
  let cold = Pt.Decode_cache.stats cache in
  let warm_ns = time (run ~jobs:1 ~cache) in
  let warm = Pt.Decode_cache.stats cache in
  let decode_calls_cold = cold.Pt.Decode_cache.misses in
  let decode_calls_warm =
    warm.Pt.Decode_cache.misses - cold.Pt.Decode_cache.misses
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let scaling = ratio seq_new_ns par_cold_ns in
  (* Like the stream gate: a multicore claim, recorded everywhere but
     held to >= 2x only where 4 domains have cores to run on. *)
  let cores = Domain.recommended_domain_count () in
  let gate = if cores >= 4 then "enforced" else "skipped_few_cores" in
  let json =
    Obs.Json.Obj
      [
        ("reports", Obs.Json.Int reports);
        ("traces", Obs.Json.Int traces);
        ("jobs", Obs.Json.Int jobs);
        ("seq_new_ns", Obs.Json.Float seq_new_ns);
        ("par_cold_ns", Obs.Json.Float par_cold_ns);
        ("warm_ns", Obs.Json.Float warm_ns);
        ("parallel_scaling", Obs.Json.Float scaling);
        ("warm_speedup", Obs.Json.Float (ratio seq_new_ns warm_ns));
        ("decode_calls_cold", Obs.Json.Int decode_calls_cold);
        ("decode_calls_warm", Obs.Json.Int decode_calls_warm);
        ("cache_hits", Obs.Json.Int warm.Pt.Decode_cache.hits);
        ("cache_misses", Obs.Json.Int warm.Pt.Decode_cache.misses);
        ("cache_evictions", Obs.Json.Int warm.Pt.Decode_cache.evictions);
        ("cache_entries", Obs.Json.Int warm.Pt.Decode_cache.entries);
        ("cores", Obs.Json.Int cores);
        ("parallel_gate", Obs.Json.String gate);
      ]
  in
  write_artifact ~what:"Decode bench" "BENCH_decode.json" json
    ~detail:
      (Printf.sprintf
         " (%d traces, cold %d decodes, warm %d; scaling %.2fx on %d \
          core(s), gate %s)"
         traces decode_calls_cold decode_calls_warm scaling cores gate)

(* The streaming fleet under the shard-per-domain service: the same
   seeded scenario serviced inline (shard_domains = 1) and with one
   worker domain per shard (shard_domains = 4), sharing one baseline
   reproduction and starting each timed run from a cold shared decode
   cache.  The SPSC handoff replays each shard's exact inline operation
   sequence, so the two bucket tables must compare equal — the runs may
   differ only in wall clock.  The >= 2x speedup assertion is a
   multicore claim; on hosts with fewer than 4 cores the ratio is still
   measured and reported, but the gate records itself as skipped (extra
   domains cannot beat physics on one core). *)
let emit_stream_bench () =
  let module Deploy = Stream.Deploy in
  let bugs = Corpus.Registry.eval_set in
  let baselines = Stream.Traffic.prepare bugs in
  let cfg domains =
    {
      Deploy.default_config with
      Deploy.endpoints = 48;
      duration_ticks = 72;
      shards = 4;
      shard_domains = domains;
      churn = true;
      seed = 42;
    }
  in
  let run domains () =
    Pt.Decode_cache.clear Pt.Decode_cache.shared;
    Deploy.run ~baselines (cfg domains) bugs
  in
  (* Best of 3, like the decode bench: the stable floor, not a mean that
     inherits GC and scheduler noise. *)
  let best f =
    let best = ref None in
    for _ = 1 to 3 do
      let s = f () in
      match !best with
      | Some (b : Deploy.summary) when b.Deploy.stream_ns <= s.Deploy.stream_ns
        ->
        ()
      | _ -> best := Some s
    done;
    Option.get !best
  in
  let seq = best (run 1) in
  let par = best (run 4) in
  let fail msg =
    Printf.eprintf "stream bench: %s\n" msg;
    exit 1
  in
  if seq.Deploy.rows <> par.Deploy.rows then
    fail "bucket tables differ between 1-domain and 4-domain runs";
  List.iter
    (fun (tag, (s : Deploy.summary)) ->
      if not s.Deploy.agree then
        fail (tag ^ ": incremental diagnosis diverged from batch");
      if not s.Deploy.accounted then
        fail (tag ^ ": backpressure accounting failed");
      if s.Deploy.leftover_queue <> 0 then
        fail (tag ^ ": final drain left packets queued"))
    [ ("seq", seq); ("par", par) ];
  let cores = Domain.recommended_domain_count () in
  let speedup =
    if par.Deploy.stream_ns > 0.0 then
      seq.Deploy.stream_ns /. par.Deploy.stream_ns
    else 0.0
  in
  let gate = if cores >= 4 then "enforced" else "skipped_few_cores" in
  if gate = "enforced" && speedup < 2.0 then
    fail
      (Printf.sprintf "stream_parallel_speedup %.2f < 2.0 (%d cores)" speedup
         cores);
  (* The stream summary of the 4-domain run, plus what only the bench
     knows: both timings, their ratio and the gate it was held to. *)
  let json =
    match Deploy.to_json par with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj
        (fields
        @ [
            ("rows_identical", Obs.Json.Bool true);
            ("stream_seq_ns", Obs.Json.Float seq.Deploy.stream_ns);
            ("stream_par_ns", Obs.Json.Float par.Deploy.stream_ns);
            ("stream_parallel_speedup", Obs.Json.Float speedup);
            ("cores", Obs.Json.Int cores);
            ("parallel_gate", Obs.Json.String gate);
          ])
    | json -> json
  in
  write_artifact ~what:"Stream bench" "BENCH_stream.json" json
    ~detail:
      (Printf.sprintf
         " (seq %.1f ms, par %.1f ms, speedup %.2fx on %d core(s), gate %s)"
         (seq.Deploy.stream_ns /. 1e6)
         (par.Deploy.stream_ns /. 1e6)
         speedup cores gate)

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  let decode_only = Array.exists (String.equal "--decode-only") Sys.argv in
  let fleet_only = Array.exists (String.equal "--fleet-only") Sys.argv in
  let stream_only = Array.exists (String.equal "--stream-only") Sys.argv in
  if decode_only then emit_decode_bench ()
  else if fleet_only then emit_fleet_bench ()
  else if stream_only then emit_stream_bench ()
  else begin
    emit_pipeline_trace ();
    emit_fleet_bench ();
    emit_decode_bench ();
    run_benchmarks ();
    run_reproduction ~samples:(if quick then 3 else 10)
  end
