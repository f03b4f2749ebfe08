(* perfbench: one layered benchmark for the whole Snorlax loop.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--out DIR]
     main.exe --smoke [--out DIR]

   Two workloads, each driving one user-facing path through the public
   APIs on a single lane: stream-hot (report -> diagnosis through the
   streaming service) and fix (diagnosis -> validated verdict).  Every
   run also measures the paths its workload does not drive — the other
   workload's, and the incident path (endpoint incident -> ranked
   diagnosis) — on small fixed reference slices, so each end-to-end
   metric exists on every workload.

   [--trace 0] prints the end-to-end metrics; [--trace 1] alternates
   untraced and traced units of the workload's path and prints the
   per-layer metrics, layer self times and the tracing overhead.  The
   last line of standard output is the result object; artifacts go to DIR (default
   perfbench/out).  A failed correctness check exits 1. *)

type workload = Stream_hot | Fix

let workloads = [ ("stream-hot", Stream_hot); ("fix", Fix) ]

(* A second seed, never used while the benchmark was tuned: a later
   claim of a gain is checked on it too. *)
let heldout_seed = 90001
let setup_reps = 5

(* The reference slices run on the three smallest C/C++ systems. *)
let slice_bugs =
  List.concat_map Corpus.Registry.by_system [ "pbzip2"; "aget"; "memcached" ]

let probe_seeds = [ 1; 2; 3 ]

(* --- the paths a run drives ------------------------------------------- *)

(* A path's numbers once it has run. *)
type part = {
  ops : int;  (** operations completed: reports drained, incidents, verdicts *)
  attempted : int;
  failed : int;
  wall_ns : float;  (** measured time *)
  check : unit -> string list;
  e2e : unit -> Out.metric list;
  layers : unit -> (string * float * string) list;
}

(* [step] runs one measured step — a stream episode, one incident, one
   bug's fix — and returns its time (ns).  A unit is a whole episode or
   pass; [at_boundary] is true when the last step completed one. *)
type path = {
  step : unit -> float;
  at_boundary : unit -> bool;
  mutable spent : float;
  mutable units : int;
  part : unit -> part;
}

let path ?(at_boundary = fun () -> true) step part =
  { step; at_boundary; spent = 0.; units = 0; part }

let timed f =
  let t0 = Trace.now () in
  f ();
  Trace.now () -. t0

let advance p =
  p.spent <- p.spent +. p.step ();
  if p.at_boundary () then p.units <- p.units + 1;
  Yardstick.sample ()

let builds bugs =
  List.map
    (fun (b : Corpus.Bug.t) ->
      let built = b.Corpus.Bug.build () in
      Lir.Irmod.layout built.Corpus.Bug.m;
      (b, built))
    bugs

let stream_path env ~seed =
  let acc = Streams.acc () in
  path
    (fun () -> Streams.episode env ~seed acc)
    (fun () ->
      {
        ops = acc.Streams.drained;
        attempted = acc.Streams.offered;
        failed = Streams.failed acc;
        wall_ns = acc.Streams.stream_ns;
        check = (fun () -> Streams.check acc);
        e2e = (fun () -> Streams.e2e acc);
        layers = (fun () -> Streams.layers acc);
      })

let incident_path (env : Incident.env) ~seed =
  let acc = Incident.acc () and passes = Passes.create ~seed env.Incident.bugs in
  path
    ~at_boundary:(fun () -> Passes.at_end passes)
    (fun () -> Incident.step env passes acc)
    (fun () ->
      {
        ops = acc.Incident.incidents;
        attempted = acc.Incident.incidents;
        failed = Incident.failed acc;
        wall_ns = acc.Incident.busy_ns;
        check = (fun () -> Incident.check acc);
        e2e = (fun () -> Incident.e2e acc);
        layers = (fun () -> []);
      })

let fix_path bugs ?cache ?(walk = false) ~seed () =
  let acc = Fixloop.acc () and passes = Passes.create ~seed bugs in
  path
    ~at_boundary:(fun () -> Passes.at_end passes)
    (fun () -> Fixloop.step passes ?cache ~walk acc)
    (fun () ->
      {
        ops = acc.Fixloop.verdicts;
        attempted = acc.Fixloop.verdicts;
        failed = Fixloop.failed acc;
        wall_ns = acc.Fixloop.busy_ns;
        check = (fun () -> Fixloop.check bugs acc);
        e2e = (fun () -> Fixloop.e2e acc);
        layers =
          (fun () ->
            Fixloop.layers bugs acc
            @ Probes.run (builds bugs) ~seeds:probe_seeds);
      })

(* The main path runs whole units until [seconds] of measured time are
   spent; a unit starts only if the last one would still fit.  After
   each step, every slice steps until its measured time catches up with
   [slice_share] of the main path's, so the slices sample the same
   stretch of host time as the main path; at the end each slice finishes
   its unit and has run at least [min_units].  [spread] ([n], [f]) runs
   [f] [n] times, spaced evenly over the main path's measured time. *)
let slice_share = 0.15

let drive ~seconds ~min_units ?(spread = (0, ignore)) main slices =
  let budget = seconds *. 1e9 in
  let n, f = spread and done_ = ref 0 in
  let unit_start = ref 0. and last_unit = ref 0. and go = ref true in
  while !go do
    advance main;
    List.iter
      (fun s ->
        while s.spent < slice_share *. main.spent do
          advance s
        done)
      slices;
    while !done_ < n && float_of_int !done_ < float_of_int n *. main.spent /. budget do
      f ();
      incr done_
    done;
    if main.at_boundary () then begin
      last_unit := main.spent -. !unit_start;
      unit_start := main.spent;
      go := main.spent +. !last_unit <= budget
    end
  done;
  List.iter
    (fun s ->
      while s.units < min_units || not (s.at_boundary ()) do
        advance s
      done)
    slices;
  for _ = !done_ + 1 to n do
    f ()
  done

(* --- set-up ------------------------------------------------------------ *)

type env = { streams : Streams.env; incidents : Incident.env }

(* Everything built before timing: the stream service's baselines and
   module builds, and the incident server's builds of the slice's bugs. *)
let setup () = { streams = Streams.setup (); incidents = Incident.setup slice_bugs }

let main_path ?walk w env ~smoke ~seed =
  match w with
  | Stream_hot -> stream_path env.streams ~seed
  | Fix -> fix_path (if smoke then slice_bugs else Corpus.Registry.all) ?walk ~seed ()

(* The two paths the workload does not drive, at a fixed size: the hot
   stream, or fix passes over [slice_bugs], and incident passes over
   [slice_bugs].  The fix slice
   decodes through a private cache so it cannot evict a stream's
   entries from the shared one. *)
let slice_paths w env ~seed =
  let stream () = stream_path env.streams ~seed in
  let incident () = incident_path env.incidents ~seed in
  let fix () = fix_path slice_bugs ~cache:(Pt.Decode_cache.create ()) ~seed () in
  match w with
  | Stream_hot -> [ incident (); fix () ]
  | Fix -> [ stream (); incident () ]

(* --- per-layer metrics --------------------------------------------------- *)

let layer_spans =
  [
    "stream.traffic";
    "stream.router";
    "stream.shard";
    "corpus.collect";
    "core.diagnose";
    "core.layout";
    "core.trace_processing";
    "analysis.pointsto";
    "core.anchor";
    "core.type_ranking";
    "core.patterns";
    "core.statistics";
    "fix.synthesize";
    "fix.judge";
  ]

(* Every per-layer metric, in the order BENCHMARK.json lists them; a
   layer the workload bypasses reads 0. *)
let layer_metrics =
  [
    ("sim.steps_per_s", "1/s");
    ("sim.runs", "count");
    ("pt.tracer.overhead_ratio", "ratio");
    ("pt.ring_bytes", "bytes");
    ("corpus.collect_ms", "ms");
    ("corpus.runs_per_incident", "count");
    ("fleet.wire.encode_us", "us");
    ("fleet.wire.decode_us", "us");
    ("fleet.wire.bytes_per_packet", "bytes");
    ("stream.traffic.tick_ms", "ms");
    ("stream.router.route_us", "us");
    ("stream.router.malformed", "count");
    ("stream.shard.service_ms", "ms");
    ("stream.shard.queue_wait_p50_ms", "ms");
    ("stream.shard.queue_wait_p99_ms", "ms");
    ("stream.shard.shed", "count");
    ("stream.shard.peak_depth", "count");
    ("stream.shard.load_skew", "ratio");
    ("stream.incremental.fast_updates", "count");
    ("stream.incremental.rederives", "count");
    ("pt.decode_cache.hits", "count");
    ("pt.decode_cache.misses", "count");
    ("pt.decode_cache.evictions", "count");
    ("pt.decode_cache.probes", "count");
    ("pt.decode_cache.hit_ratio", "ratio");
    ("pt.decoder.decode_us", "us");
    ("pt.decoder.steps_per_s", "1/s");
    ("core.trace_processing_ms", "ms");
    ("analysis.pointsto_ms", "ms");
    ("core.type_ranking_ms", "ms");
    ("core.patterns_ms", "ms");
    ("core.statistics_ms", "ms");
    ("core.candidates.trace_processing", "count");
    ("core.candidates.pointsto", "count");
    ("core.candidates.type_ranking", "count");
    ("core.candidates.patterns", "count");
    ("core.candidates.statistics", "count");
    ("fix.synthesize_ms", "ms");
    ("fix.judge_ms", "ms");
    ("fix.attempts_per_bug", "count");
    ("fix.runs_per_bug", "count");
    ("analysis.hb.overhead_ratio", "ratio");
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_ms", "ms")) layer_spans
  @ [
      ("self.other_ms", "ms");
      ("trace.wall_ms", "ms");
      ("trace.coverage", "ratio");
      ("trace.spans", "count");
      ("trace.overhead_ratio", "ratio");
      ("trace.overhead_ms", "ms");
    ]

(* Layer numbers every workload reads the same way from its traced
   units: the program's own decoder and reproduction-run counters, the
   shared decode cache's traffic, and the diagnosis stage spans. *)
let common_layers () =
  let m = (Trace.scope ()).Obs.Scope.metrics in
  let counter name = float_of_int (Option.value ~default:0 (Obs.Metrics.find_counter m name)) in
  let decode_ns =
    match Obs.Metrics.find_histogram m "pt/decode_ns" with
    | Some h -> h.Obs.Metrics.sum
    | None -> 0.
  in
  let calls = counter "pt/decode_calls" in
  let c = Trace.cache_traffic () in
  let hits = c.Pt.Decode_cache.hits and misses = c.Pt.Decode_cache.misses in
  let probes = hits + misses in
  let diagnoses = float_of_int (max 1 (Trace.count "core.diagnose")) in
  let stage name = Trace.total_ns name /. diagnoses /. 1e6 in
  let collects = float_of_int (max 1 (Trace.count "corpus.collect")) in
  [
    ("corpus.collect_ms", Trace.total_ns "corpus.collect" /. collects /. 1e6, "ms");
    ("corpus.runs_per_incident", counter "corpus/runs" /. collects, "count");
    ("pt.decode_cache.hits", float_of_int hits, "count");
    ("pt.decode_cache.misses", float_of_int misses, "count");
    ("pt.decode_cache.evictions", float_of_int c.Pt.Decode_cache.evictions, "count");
    ("pt.decode_cache.probes", float_of_int probes, "count");
    ( "pt.decode_cache.hit_ratio",
      (if probes > 0 then float_of_int hits /. float_of_int probes else 0.),
      "ratio" );
    ("pt.decoder.decode_us", (if calls > 0. then decode_ns /. calls /. 1e3 else 0.), "us");
    ( "pt.decoder.steps_per_s",
      (if decode_ns > 0. then counter "pt/decoded_steps" /. (decode_ns /. 1e9) else 0.),
      "1/s" );
    ("core.trace_processing_ms", stage "core.trace_processing", "ms");
    ("analysis.pointsto_ms", stage "analysis.pointsto", "ms");
    ("core.type_ranking_ms", stage "core.type_ranking", "ms");
    ("core.patterns_ms", stage "core.patterns", "ms");
    ("core.statistics_ms", stage "core.statistics", "ms");
  ]
  @ List.map
      (fun (metric, layer) ->
        ( "core.candidates." ^ metric,
          float_of_int (Trace.candidates layer) /. diagnoses,
          "count" ))
      [
        ("trace_processing", "core.trace_processing");
        ("pointsto", "analysis.pointsto");
        ("type_ranking", "core.type_ranking");
        ("patterns", "core.patterns");
        ("statistics", "core.statistics");
      ]

(* Self time per layer over the traced units, the remainder no layer span
   covers as [other], and the tracing overhead per operation against the
   untraced units. *)
let self_layers ~(untraced : part) ~(traced : part) =
  let totals = Trace.totals () in
  let covered = Hashtbl.fold (fun _ t a -> a +. t.Trace.self_ns) totals 0. in
  let wall = traced.wall_ns in
  let per_op p = p.wall_ns /. float_of_int (max 1 p.ops) in
  List.map (fun l -> ("self." ^ l ^ "_ms", (Trace.find l).Trace.self_ns /. 1e6, "ms")) layer_spans
  @ [
      ("self.other_ms", (wall -. covered) /. 1e6, "ms");
      ("trace.wall_ms", wall /. 1e6, "ms");
      ("trace.coverage", covered /. wall, "ratio");
      ("trace.spans", float_of_int (List.length (Trace.spans ())), "count");
      ("trace.overhead_ratio", per_op traced /. per_op untraced, "ratio");
      ("trace.overhead_ms", (per_op traced -. per_op untraced) /. 1e6, "ms");
    ]

(* --- the run ------------------------------------------------------------ *)

let env_or name default =
  match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default

let stamp ~workload ~seed ~trace =
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String workload);
      ("seed", Obs.Json.Int seed);
      ("heldout_seed", Obs.Json.Int heldout_seed);
      ("trace", Obs.Json.Int trace);
      ("nproc", Obs.Json.String (env_or "PERFBENCH_NPROC" "unknown"));
      ("recommended_domains", Obs.Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("rev", Obs.Json.String (env_or "PERFBENCH_REV" "unknown"));
      ("lanes", Obs.Json.Int 1);
    ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write_json dir file json =
  mkdir_p dir;
  let oc = open_out (Filename.concat dir file) in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc

type result = {
  metrics : Out.metric list;
  r_attempted : int;
  r_failed : int;
  errors : string list;
}

let untraced_run w ~smoke ~seed ~seconds =
  let setups = Samples.create () in
  let set_up () =
    let env = ref None in
    Samples.add setups (timed (fun () -> env := Some (setup ())));
    Samples.close setups;
    Option.get !env
  in
  let env = set_up () in
  let main = main_path w env ~smoke ~seed in
  let slices = slice_paths w env ~seed in
  (* The further set-ups are timed between units, so their median samples
     the same stretch of host time as the measurements. *)
  drive ~seconds ~min_units:(if smoke then 1 else 2)
    ~spread:((if smoke then 0 else setup_reps - 1), fun () -> ignore (set_up ()))
    main slices;
  (* Before the checks, so their work cannot set the high-water mark. *)
  let peak_heap_mb = peak_heap_mb () in
  let parts = List.map (fun p -> p.part ()) (main :: slices) in
  let errors = List.concat_map (fun p -> p.check ()) parts in
  let by_name = List.concat_map (fun p -> p.e2e ()) parts in
  let find name = List.find (fun (m : Out.metric) -> m.Out.name = name) by_name in
  {
    metrics =
      [
        Out.timing ~unit_:"s" "setup_s" setups 50.;
        Out.plain ("peak_heap_mb", peak_heap_mb, "MB");
      ]
      @ List.map find
          [
            "reports_per_s";
            "report_latency_p50_ms";
            "report_latency_p99_ms";
            "incidents_per_s";
            "incident_latency_p50_ms";
            "incident_latency_p90_ms";
            "diagnosis_latency_p50_ms";
            "diagnosis_latency_p90_ms";
            "validation_seeds_per_s";
            "verdict_latency_p50_ms";
            "verdict_latency_p90_ms";
          ];
    r_attempted = List.fold_left (fun a p -> a + p.attempted) 0 parts;
    r_failed = List.fold_left (fun a p -> a + p.failed) 0 parts;
    errors;
  }

(* The traced run steps two copies of the workload's path over the same
   inputs — one recorded, one not — in pairs for [seconds] of measured
   time, the untraced step first in even pairs and second in odd ones, so
   both copies sample the same stretch of host time and, on average, the
   same decode-cache state.  The fix copies both take [walk_bug]'s route. *)
let traced_run w ~smoke ~seed ~seconds ~out ~workload =
  let env = setup () in
  let copy () = main_path ~walk:true w env ~smoke ~seed in
  let untraced = copy () and traced = copy () in
  Trace.reset ();
  let plain () = advance untraced and recorded () = Trace.recorded (fun () -> advance traced) in
  let pairs = ref 0 in
  while !pairs < 2 || untraced.spent +. traced.spent < seconds *. 1e9 do
    if !pairs mod 2 = 0 then (plain (); recorded ()) else (recorded (); plain ());
    incr pairs
  done;
  let untraced = untraced.part () and traced = traced.part () in
  let errors = untraced.check () @ traced.check () in
  let found = traced.layers () @ common_layers () @ self_layers ~untraced ~traced in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) found with
        | Some (_, v, u) -> Out.plain (name, v, u)
        | None -> Out.plain (name, 0., unit_))
      layer_metrics
  in
  write_json out
    (Printf.sprintf "trace-%s-seed%d.json" workload seed)
    (Obs.Json.Obj
       [
         ("stamp", stamp ~workload ~seed ~trace:1);
         ("trace", Trace.to_json ());
       ]);
  {
    metrics;
    r_attempted = untraced.attempted + traced.attempted;
    r_failed = untraced.failed + traced.failed;
    errors;
  }

let run_one ~workload ~seed ~seconds ~trace ~smoke ~out =
  let w = List.assoc workload workloads in
  Snorlax_util.Pool.set_default_jobs 1;
  let r =
    if trace = 1 then traced_run w ~smoke ~seed ~seconds ~out ~workload
    else untraced_run w ~smoke ~seed ~seconds
  in
  let correct = r.errors = [] in
  let failed = r.r_failed + List.length r.errors in
  write_json out
    (Printf.sprintf "result-%s-seed%d-trace%d.json" workload seed trace)
    (Obs.Json.Obj
       [
         ("stamp", stamp ~workload ~seed ~trace);
         ("correct", Obs.Json.Bool correct);
         ("attempted", Obs.Json.Int r.r_attempted);
         ("failed", Obs.Json.Int failed);
         ("errors", Obs.Json.List (List.map (fun e -> Obs.Json.String e) r.errors));
         ( "metrics",
           Obs.Json.Obj (List.map (fun m -> (m.Out.name, Out.json m)) r.metrics) );
         ("yardstick", Yardstick.series ());
       ]);
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) r.errors;
  (correct, r.r_attempted, failed, r.metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke = ref false and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  stream-hot | fix");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " every workload at reduced size, checks included");
      ("--out", Arg.Set_string out, "DIR  artifact directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !smoke then begin
    let ok = ref true in
    List.iter
      (fun (workload, _) ->
        List.iter
          (fun trace ->
            let correct, attempted, failed, _ =
              run_one ~workload ~seed:!seed ~seconds:0. ~trace ~smoke:true ~out:!out
            in
            Printf.printf "smoke %-12s trace %d: correct %b, %d attempted, %d failed\n%!"
              workload trace correct attempted failed;
            if not correct || failed > 0 then ok := false)
          [ 0; 1 ])
      workloads;
    exit (if !ok then 0 else 1)
  end;
  if not (List.mem_assoc !workload workloads) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
    exit 2
  end;
  let correct, attempted, failed, metrics =
    run_one ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~smoke:false ~out:!out
  in
  Printf.printf "perfbench %s seed %d trace %d: %s\n" !workload !seed !trace
    (Obs.Json.to_string (stamp ~workload:!workload ~seed:!seed ~trace:!trace));
  List.iter (fun m -> print_endline (Out.line m)) metrics;
  print_endline (Out.result_line ~correct ~attempted ~failed metrics);
  exit (if correct then 0 else 1)
