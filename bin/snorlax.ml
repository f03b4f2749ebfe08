(* Command-line interface: list the corpus, reproduce and diagnose a bug,
   dump a corpus program's IR, and run each of the paper's experiments. *)

open Cmdliner
module Core = Snorlax_core

let list_bugs () =
  let t =
    Snorlax_util.Tablefmt.create
      ~headers:[ "id"; "system"; "tracker"; "kind"; "eval"; "description" ]
  in
  Snorlax_util.Tablefmt.set_align t
    Snorlax_util.Tablefmt.[ Left; Left; Left; Left; Left; Left ];
  let eval_ids =
    List.map (fun b -> b.Corpus.Bug.id) Corpus.Registry.eval_set
  in
  List.iter
    (fun (b : Corpus.Bug.t) ->
      Snorlax_util.Tablefmt.add_row t
        [
          b.Corpus.Bug.id;
          b.Corpus.Bug.system;
          b.Corpus.Bug.tracker_id;
          Corpus.Bug.kind_name b.Corpus.Bug.kind;
          (if List.mem b.Corpus.Bug.id eval_ids then "yes" else "");
          b.Corpus.Bug.description;
        ])
    Corpus.Registry.all;
  Snorlax_util.Tablefmt.print t;
  Printf.printf "\n%d bugs in %d systems (11 in the evaluation set).\n"
    (List.length Corpus.Registry.all)
    (List.length Corpus.Registry.systems)

(* Serialize [json] to [path]; a diagnosis whose telemetry cannot be
   written is a failed diagnosis, hence the non-zero exit. *)
let write_json path json =
  match
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Obs.Json.to_string json);
        Out_channel.output_char oc '\n')
  with
  | () -> true
  | exception Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" path msg;
    false

(* Observability options shared by every long-running subcommand. *)
type obs_opts = {
  trace_out : string option;
  metrics_out : string option;
  metrics_text : string option;  (** OpenMetrics exposition file *)
  obs_summary : bool;
  log_level : string option;  (** attach a stderr text sink at this level *)
  log_json : string option;  (** JSON-lines event log file *)
}

let obs_wanted o =
  o.trace_out <> None || o.metrics_out <> None || o.metrics_text <> None
  || o.obs_summary

(* Attach log sinks and enable the telemetry scope before the run; false
   on a bad level name or an unwritable --log-json path. *)
let setup_obs o =
  let ok = ref true in
  (match o.log_level with
  | None -> ()
  | Some name -> (
    match Obs.Log.level_of_string name with
    | Some lvl ->
      Obs.Log.set_level lvl;
      Obs.Log.add_sink (Obs.Log.text_sink stderr)
    | None ->
      Printf.eprintf "unknown log level %s (debug|info|warn|error)\n" name;
      ok := false));
  (match o.log_json with
  | None -> ()
  | Some path -> (
    match open_out path with
    | oc ->
      at_exit (fun () -> close_out_noerr oc);
      Obs.Log.add_sink (Obs.Log.json_sink oc)
    | exception Sys_error msg ->
      Printf.eprintf "cannot open %s: %s\n" path msg;
      ok := false));
  if obs_wanted o then ignore (Obs.Scope.enable ());
  !ok

let emit_obs o =
  let ok = ref true in
  (match (o.trace_out, Obs.Scope.export_chrome ()) with
  | Some path, Some j ->
    if write_json path j then
      Printf.printf "Chrome trace written to %s (open in ui.perfetto.dev)\n" path
    else ok := false
  | Some path, None ->
    Printf.eprintf "cannot write %s: no telemetry scope\n" path;
    ok := false
  | None, _ -> ());
  (match (o.metrics_out, Obs.Scope.export_metrics ()) with
  | Some path, Some j ->
    if write_json path j then Printf.printf "Metrics written to %s\n" path
    else ok := false
  | Some path, None ->
    Printf.eprintf "cannot write %s: no telemetry scope\n" path;
    ok := false
  | None, _ -> ());
  (match (o.metrics_text, Obs.Scope.export_openmetrics ()) with
  | Some path, Some text -> (
    match
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc text)
    with
    | () -> Printf.printf "OpenMetrics exposition written to %s\n" path
    | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      ok := false)
  | Some path, None ->
    Printf.eprintf "cannot write %s: no telemetry scope\n" path;
    ok := false
  | None, _ -> ());
  if o.obs_summary then begin
    let s = Obs.Scope.summary () in
    if s <> "" then Printf.printf "\n%s%!" s
  end;
  !ok

(* [--decode-jobs]/[--decode-cache] act on the process-wide defaults so
   every decode downstream of the command — including the fleet
   collector's per-bucket re-diagnoses — sees them without threading
   arguments through each layer. *)
let apply_decode_opts jobs cache =
  Option.iter Snorlax_util.Pool.set_default_jobs jobs;
  Option.iter (Pt.Decode_cache.set_capacity Pt.Decode_cache.shared) cache

(* The bugs a [--bug ID | --all] command runs on; [--all] means [corpus]. *)
let select_bugs ~corpus bug_id all =
  match (bug_id, all) with
  | _, true -> Ok corpus
  | Some id, false -> (
    match Corpus.Registry.find id with
    | Some bug -> Ok [ bug ]
    | None -> Error (Printf.sprintf "unknown bug id %s (try `snorlax list`)" id))
  | None, false -> Error "pass --bug ID or --all"

let diagnose_bug id verbose decode_jobs decode_cache obs =
  apply_decode_opts decode_jobs decode_cache;
  if not (setup_obs obs) then 1
  else
  match Corpus.Registry.find id with
  | None ->
    Printf.eprintf "unknown bug id %s (try `snorlax list`)\n" id;
    1
  | Some bug -> (
    Printf.printf "Reproducing %s (%s): %s\n%!" bug.Corpus.Bug.id
      (Corpus.Bug.kind_name bug.Corpus.Bug.kind)
      bug.Corpus.Bug.description;
    match Corpus.Runner.collect bug () with
    | Error msg ->
      Printf.eprintf "reproduction failed: %s\n" msg;
      1
    | Ok c ->
      Printf.printf
        "Reproduced after %d executions (seed %s); %d successful traces \
         gathered at the failure location.\n%!"
        c.Corpus.Runner.runs_needed
        (String.concat "," (List.map string_of_int c.Corpus.Runner.failing_seeds))
        (List.length c.Corpus.Runner.successful);
      let m = c.Corpus.Runner.built.Corpus.Bug.m in
      let res =
        Core.Diagnosis.diagnose m ~config:Pt.Config.default
          ~failing:c.Corpus.Runner.failing
          ~successful:c.Corpus.Runner.successful
      in
      (match res.Core.Diagnosis.top with
      | None ->
        Printf.printf "No pattern found.\n";
        ()
      | Some top ->
        Printf.printf "\nDiagnosed root cause (F1 = %.2f):\n%s\n"
          top.Core.Statistics.f1
          (Core.Patterns.describe m top.Core.Statistics.pattern);
        let gt = c.Corpus.Runner.built.Corpus.Bug.ground_truth in
        Printf.printf
          "\nGround truth check: root cause %s, ordering accuracy %.1f%%\n"
          (if
             Core.Accuracy.root_cause_match
               ~diagnosed:top.Core.Statistics.pattern ~ground_truth:gt
           then "matches the developers' fix"
           else "MISMATCH")
          (Core.Accuracy.ordering_accuracy ~diagnosed:top.Core.Statistics.pattern
             ~ground_truth:gt));
      if verbose then begin
        Printf.printf "\nAll scored patterns:\n";
        List.iter
          (fun (s : Core.Statistics.scored) ->
            Printf.printf "  F1=%.2f P=%.2f R=%.2f  %s\n" s.Core.Statistics.f1
              s.Core.Statistics.precision s.Core.Statistics.recall
              (Core.Patterns.id s.Core.Statistics.pattern))
          res.Core.Diagnosis.scored;
        let sc = res.Core.Diagnosis.stage_counts in
        Printf.printf
          "Stage funnel: %d static -> %d executed -> %d aliasing -> %d \
           rank-1 -> %d in patterns -> %d in root cause\n"
          sc.Core.Diagnosis.total_instrs sc.Core.Diagnosis.after_trace_processing
          sc.Core.Diagnosis.after_points_to sc.Core.Diagnosis.after_type_ranking
          sc.Core.Diagnosis.after_patterns sc.Core.Diagnosis.after_statistics
      end;
      if emit_obs obs then 0 else 1)

let fleet_run n_endpoints bug_id all watch decode_jobs decode_cache obs =
  apply_decode_opts decode_jobs decode_cache;
  if not (setup_obs obs) then 1
  else begin
  let bugs = select_bugs ~corpus:Corpus.Registry.eval_set bug_id all in
  match bugs with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok bugs ->
    Printf.printf
      "Deploying %d endpoints x %d scenario%s; collecting wire reports...\n%!"
      n_endpoints (List.length bugs)
      (if List.length bugs = 1 then "" else "s");
    let tick =
      if watch then
        Some (fun p -> Printf.printf "%s\n%!" (Stream.Deploy.watch_line p))
      else None
    in
    let s = Stream.Deploy.once ?tick ~endpoints:n_endpoints bugs in
    let t =
      Snorlax_util.Tablefmt.create
        ~headers:
          [
            "bug"; "signature"; "eps"; "fail k/d"; "succ k/d"; "bytes";
            "top pattern"; "F1"; "ground truth";
          ]
    in
    List.iter
      (fun (r : Stream.Deploy.bucket_row) ->
        Snorlax_util.Tablefmt.add_row t
          [
            r.Stream.Deploy.bug_id;
            r.Stream.Deploy.signature;
            string_of_int r.Stream.Deploy.endpoints_hit;
            Printf.sprintf "%d/%d" r.Stream.Deploy.failing_kept
              r.Stream.Deploy.failing_dropped;
            Printf.sprintf "%d/%d" r.Stream.Deploy.success_kept
              r.Stream.Deploy.success_dropped;
            string_of_int r.Stream.Deploy.wire_bytes;
            Option.value ~default:"-" r.Stream.Deploy.top_pattern;
            Printf.sprintf "%.2f" r.Stream.Deploy.f1;
            (if r.Stream.Deploy.top_pattern = None then "-"
             else if r.Stream.Deploy.root_cause_match then
               Printf.sprintf "match (A_O %.0f%%)"
                 r.Stream.Deploy.ordering_accuracy
             else "MISMATCH");
          ])
      s.Stream.Deploy.rows;
    Snorlax_util.Tablefmt.print t;
    List.iter
      (fun (r : Stream.Deploy.bucket_row) ->
        (match r.Stream.Deploy.top_describe with
        | Some d ->
          Printf.printf "\n%s (%s):\n%s\n" r.Stream.Deploy.bug_id
            r.Stream.Deploy.signature d
        | None ->
          Printf.printf "\n%s (%s): no pattern diagnosed\n"
            r.Stream.Deploy.bug_id r.Stream.Deploy.signature);
        List.iter
          (fun q -> Printf.printf "  qualifier: %s\n" q)
          r.Stream.Deploy.qualifiers)
      s.Stream.Deploy.rows;
    Printf.printf
      "\n%d packets (%d wire bytes) from %d endpoint(s); %d bucket(s), dedup \
       %.1f:1, %d decode error(s), %d unrouted; diagnosis %.1f ms of %.1f ms \
       total.\n"
      s.Stream.Deploy.offered s.Stream.Deploy.wire_bytes n_endpoints
      s.Stream.Deploy.bucket_count s.Stream.Deploy.dedup_ratio
      s.Stream.Deploy.ingest_errors s.Stream.Deploy.unrouted
      (s.Stream.Deploy.diagnosis_ns /. 1e6)
      (s.Stream.Deploy.total_ns /. 1e6);
    Printf.printf "Report->diagnosis latency p50 %.1f ms, p99 %.1f ms.\n"
      (s.Stream.Deploy.latency_p50_ns /. 1e6)
      (s.Stream.Deploy.latency_p99_ns /. 1e6);
    let obs_ok = emit_obs obs in
    let diagnosed =
      s.Stream.Deploy.rows <> []
      && List.for_all
           (fun (r : Stream.Deploy.bucket_row) ->
             r.Stream.Deploy.top_pattern <> None)
           s.Stream.Deploy.rows
    in
    if not diagnosed then Printf.eprintf "fleet: some bucket had no diagnosis\n";
    (* The stream plane's gates hold for the one-shot fleet too. *)
    let gates =
      s.Stream.Deploy.agree && s.Stream.Deploy.accounted
      && s.Stream.Deploy.leftover_queue = 0
    in
    if not gates then
      Printf.eprintf
        "fleet: incremental != batch, accounting broken or queues not empty\n";
    if diagnosed && gates && obs_ok then 0 else 1
  end

let chaos_run seeds n_endpoints bug_id all fault_name out obs =
  if not (setup_obs obs) then 1
  else
  let bugs = select_bugs ~corpus:Corpus.Registry.eval_set bug_id all in
  let classes =
    match fault_name with
    | None -> Ok Chaos.Fault.all
    | Some n -> (
      match Chaos.Fault.of_name n with
      | Some c -> Ok [ c ]
      | None ->
        Error
          (Printf.sprintf "unknown fault class %s (one of: %s)" n
             (String.concat ", " (List.map Chaos.Fault.name Chaos.Fault.all))))
  in
  match (bugs, classes) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok bugs, Ok classes -> (
    Printf.printf
      "Chaos: %d seed(s) x %d fault class(es) x %d bug(s), %d endpoints \
       each...\n%!"
      seeds (List.length classes) (List.length bugs) n_endpoints;
    match
      (* One bug per lane, as wide as the pool default: the host's
         recommended domain count (chaos has no jobs flag). *)
      Chaos.Harness.run ~endpoints:n_endpoints ~classes
        ~progress:(fun line -> Printf.printf "  %s\n%!" line)
        ~jobs:(Snorlax_util.Pool.default_jobs ())
        ~seeds bugs
    with
    | Error msg ->
      Printf.eprintf "%s\n" msg;
      1
    | Ok r ->
      let t =
        Snorlax_util.Tablefmt.create
          ~headers:
            [
              "fault class"; "trials"; "faults"; "packets"; "violations";
              "uncaught"; "nondet"; "diagnosed"; "rc match"; "surv F1";
            ]
      in
      Snorlax_util.Tablefmt.set_align t
        Snorlax_util.Tablefmt.
          [ Left; Right; Right; Right; Right; Right; Right; Right; Right;
            Right ];
      List.iter
        (fun (s : Chaos.Harness.class_summary) ->
          Snorlax_util.Tablefmt.add_row t
            [
              Chaos.Fault.name s.Chaos.Harness.summary_cls;
              string_of_int s.Chaos.Harness.trials;
              string_of_int s.Chaos.Harness.faults_injected;
              string_of_int s.Chaos.Harness.packets_sent;
              string_of_int s.Chaos.Harness.violation_count;
              string_of_int s.Chaos.Harness.uncaught_count;
              string_of_int s.Chaos.Harness.nondeterministic;
              string_of_int s.Chaos.Harness.diagnosed_trials;
              string_of_int s.Chaos.Harness.rc_matched_trials;
              Printf.sprintf "%.2f" s.Chaos.Harness.survival_f1;
            ])
        r.Chaos.Harness.classes;
      Snorlax_util.Tablefmt.print t;
      Printf.printf
        "\n%d faults injected; %d invariant violation(s), %d uncaught \
         exception(s)/nondeterminism.\n"
        r.Chaos.Harness.total_faults r.Chaos.Harness.total_violations
        r.Chaos.Harness.total_uncaught;
      List.iter
        (fun v -> Printf.eprintf "violation: %s\n" v)
        r.Chaos.Harness.violation_examples;
      let json_ok = write_json out (Chaos.Harness.to_json r) in
      if json_ok then Printf.printf "Chaos bench written to %s\n" out;
      let obs_ok = emit_obs obs in
      if Chaos.Harness.ok r && json_ok && obs_ok then 0 else 1)

let stream_run n_endpoints ticks n_shards shard_domains churn fault_name
    shed_str watch bug_id all seed out decode_jobs decode_cache obs =
  apply_decode_opts decode_jobs decode_cache;
  if not (setup_obs obs) then 1
  else begin
    if watch && not (Obs.Scope.enabled ()) then ignore (Obs.Scope.enable ());
    let bugs = select_bugs ~corpus:Corpus.Registry.eval_set bug_id all in
    let fault =
      match fault_name with
      | None -> Ok None
      | Some n -> (
        match Chaos.Fault.of_name n with
        | Some c -> Ok (Some c)
        | None ->
          Error
            (Printf.sprintf "unknown fault class %s (one of: %s)" n
               (String.concat ", " (List.map Chaos.Fault.name Chaos.Fault.all))))
    in
    let shed =
      match Stream.Shard.shed_of_name shed_str with
      | Some s -> Ok s
      | None ->
        Error
          (Printf.sprintf "unknown shed policy %s (drop-oldest|drop-newest)"
             shed_str)
    in
    match (bugs, fault, shed) with
    | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
      Printf.eprintf "%s\n" msg;
      1
    | Ok bugs, Ok fault, Ok shed ->
      let cfg =
        {
          Stream.Deploy.default_config with
          Stream.Deploy.endpoints = n_endpoints;
          duration_ticks = ticks;
          shards = n_shards;
          shard_domains;
          churn;
          fault;
          seed;
          shed;
        }
      in
      Printf.printf
        "Streaming %d endpoints x %d scenario%s for %d ticks across %d \
         shard%s (%s)...\n%!"
        n_endpoints (List.length bugs)
        (if List.length bugs = 1 then "" else "s")
        ticks n_shards
        (if n_shards = 1 then "" else "s")
        (let width = Snorlax_util.Pool.lanes ~jobs:shard_domains n_shards in
         if shard_domains <= 1 then "inline"
         else
           Printf.sprintf "%d service domain%s" width
             (if width = 1 then "" else "s"));
      let tick =
        if watch then
          Some
            (fun p -> Printf.printf "%s\n%!" (Stream.Deploy.watch_line p))
        else None
      in
      let s = Stream.Deploy.run ?tick cfg bugs in
      let t =
        Snorlax_util.Tablefmt.create
          ~headers:
            [
              "shard"; "bug"; "signature"; "fail"; "succ"; "top pattern";
              "F1"; "gt"; "rederive"; "fast"; "batch=";
            ]
      in
      List.iter
        (fun (r : Stream.Deploy.bucket_row) ->
          Snorlax_util.Tablefmt.add_row t
            [
              string_of_int r.Stream.Deploy.shard;
              r.Stream.Deploy.bug_id;
              r.Stream.Deploy.signature;
              string_of_int r.Stream.Deploy.failing_kept;
              string_of_int r.Stream.Deploy.success_kept;
              Option.value ~default:"-" r.Stream.Deploy.top_pattern;
              Printf.sprintf "%.2f" r.Stream.Deploy.f1;
              (if r.Stream.Deploy.root_cause_match then "match" else "MISS");
              string_of_int r.Stream.Deploy.rederives;
              string_of_int r.Stream.Deploy.fast_updates;
              (if r.Stream.Deploy.batch_agrees then "yes" else "NO");
            ])
        s.Stream.Deploy.rows;
      Snorlax_util.Tablefmt.print t;
      Printf.printf
        "\n%d packets offered, %d shed (%.1f%%), %d drained; peak queue %d, \
         %d high-watermark crossing(s).\n"
        s.Stream.Deploy.offered s.Stream.Deploy.shed
        (100.0 *. s.Stream.Deploy.shed_ratio)
        s.Stream.Deploy.drained s.Stream.Deploy.peak_queue_depth
        s.Stream.Deploy.watermark_highs;
      Printf.printf
        "%d incidents from %d->%d endpoints (+%d joins, -%d leaves, -%d \
         crashes); %d buckets, %d re-derives / %d fast updates.\n"
        s.Stream.Deploy.incidents n_endpoints s.Stream.Deploy.final_endpoints
        s.Stream.Deploy.joins s.Stream.Deploy.leaves s.Stream.Deploy.crashes
        s.Stream.Deploy.bucket_count s.Stream.Deploy.rederives
        s.Stream.Deploy.fast_updates;
      Printf.printf
        "Sustained %.0f reports/s; report->diagnosis latency p50 %.1f ms, \
         p99 %.1f ms.\n"
        s.Stream.Deploy.reports_per_sec
        (s.Stream.Deploy.latency_p50_ns /. 1e6)
        (s.Stream.Deploy.latency_p99_ns /. 1e6);
      let json_ok = write_json out (Stream.Deploy.to_json s) in
      if json_ok then Printf.printf "Stream bench written to %s\n" out;
      let obs_ok = emit_obs obs in
      (* The gate: incremental == batch on every bucket, backpressure
         accounting reconciles, nothing left in the queues, and — absent
         injected faults — the fleet's failures were actually diagnosed. *)
      let gate =
        s.Stream.Deploy.agree && s.Stream.Deploy.accounted
        && s.Stream.Deploy.leftover_queue = 0
        && (fault <> None || s.Stream.Deploy.bucket_count > 0)
      in
      if not gate then Printf.eprintf "stream: gate failed\n";
      if gate && json_ok && obs_ok then 0 else 1
  end

let validate () =
  let ok = ref 0 and bad = ref 0 in
  List.iter
    (fun bug ->
      match Corpus.Runner.collect bug () with
      | Error msg ->
        incr bad;
        Printf.printf "%-16s FAILED-TO-REPRODUCE %s\n%!" bug.Corpus.Bug.id msg
      | Ok c -> (
        let res =
          Core.Diagnosis.diagnose c.Corpus.Runner.built.Corpus.Bug.m
            ~config:Pt.Config.default ~failing:c.Corpus.Runner.failing
            ~successful:c.Corpus.Runner.successful
        in
        let gt = c.Corpus.Runner.built.Corpus.Bug.ground_truth in
        match res.Core.Diagnosis.top with
        | Some top
          when Core.Accuracy.root_cause_match
                 ~diagnosed:top.Core.Statistics.pattern ~ground_truth:gt
               && Core.Accuracy.ordering_accuracy
                    ~diagnosed:top.Core.Statistics.pattern ~ground_truth:gt
                  = 100.0 ->
          incr ok;
          Printf.printf "%-16s ok (F1 %.2f, A_O 100%%)\n%!" bug.Corpus.Bug.id
            top.Core.Statistics.f1
        | Some top ->
          incr bad;
          Printf.printf "%-16s WRONG ROOT CAUSE: %s\n%!" bug.Corpus.Bug.id
            (Core.Patterns.id top.Core.Statistics.pattern)
        | None ->
          incr bad;
          Printf.printf "%-16s NO PATTERN\n%!" bug.Corpus.Bug.id))
    Corpus.Registry.all;
  Printf.printf "\n%d/%d bugs diagnosed with full accuracy.\n" !ok (!ok + !bad);
  if !bad = 0 then 0 else 1

let replay_bug id =
  match Corpus.Registry.find id with
  | None ->
    Printf.eprintf "unknown bug id %s\n" id;
    1
  | Some bug -> (
    match Corpus.Runner.collect bug ~success_per_failing:10 () with
    | Error msg ->
      Printf.eprintf "reproduction failed: %s\n" msg;
      1
    | Ok c ->
      let m = c.Corpus.Runner.built.Corpus.Bug.m in
      let res =
        Core.Diagnosis.diagnose m ~config:Pt.Config.default
          ~failing:c.Corpus.Runner.failing
          ~successful:c.Corpus.Runner.successful
      in
      (match res.Core.Diagnosis.top with
      | None ->
        Printf.eprintf "no pattern to replay\n";
        ()
      | Some top ->
        let racy = Replay.racy_iids_of_pattern top.Core.Statistics.pattern in
        let seed = List.hd c.Corpus.Runner.failing_seeds in
        let r0, schedule =
          Replay.record ~seed m ~entry:bug.Corpus.Bug.entry ~racy_iids:racy
        in
        Printf.printf
          "Recorded the failing run (seed %d): %d racing-access events.\n" seed
          (Replay.schedule_length schedule);
        (match r0.Sim.Interp.outcome with
        | Sim.Interp.Failed { failure; _ } ->
          Printf.printf "  original failure: %s\n" (Sim.Failure.to_string failure)
        | _ -> ());
        let r1, fidelity =
          Replay.replay ~seed m ~entry:bug.Corpus.Bug.entry ~racy_iids:racy
            schedule
        in
        Printf.printf
          "Replay under the coarse schedule: %s (%d enforced, %d diverged%s).\n"
          (match r1.Sim.Interp.outcome with
          | Sim.Interp.Failed { failure; _ } -> Sim.Failure.to_string failure
          | Sim.Interp.Completed -> "completed"
          | Sim.Interp.Stuck -> "stuck"
          | Sim.Interp.Fuel_exhausted -> "fuel exhausted")
          fidelity.Replay.enforced fidelity.Replay.diverged
          (if fidelity.Replay.gave_up then ", gave up" else ""));
      0)

let dump_bug id =
  match Corpus.Registry.find id with
  | None ->
    Printf.eprintf "unknown bug id %s\n" id;
    1
  | Some bug ->
    let built = bug.Corpus.Bug.build () in
    print_string (Lir.Printer.module_to_string built.Corpus.Bug.m);
    0

let experiment name samples =
  match name with
  | "hypothesis" | "tables" ->
    Experiments.Report.print_hypothesis ?samples ();
    0
  | "accuracy" ->
    ignore (Experiments.Report.print_accuracy ());
    0
  | "stages" | "figure7" ->
    ignore (Experiments.Report.print_figure7 ());
    0
  | "analysis-time" | "table4" ->
    ignore (Experiments.Report.print_table4 ());
    0
  | "overhead" | "figure8" ->
    ignore (Experiments.Report.print_figure8 ());
    0
  | "scalability" | "figure9" ->
    ignore (Experiments.Report.print_figure9 ());
    0
  | "latency" ->
    ignore (Experiments.Report.print_latency ());
    0
  | "ablations" ->
    Experiments.Ablations.print_all ();
    0
  | "all" ->
    Experiments.Report.print_all ?samples ();
    0
  | other ->
    Printf.eprintf
      "unknown experiment %s (hypothesis|accuracy|stages|analysis-time|\
       overhead|scalability|latency|ablations|all)\n"
      other;
    1

let bench_compare old_path new_path max_regress verbose =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> (
      match Obs.Json.parse s with
      | Ok j -> Ok j
      | Error msg -> Error (Printf.sprintf "%s: parse error: %s" path msg))
    | exception Sys_error msg -> Error msg
  in
  match (read old_path, read new_path) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "bench-compare: %s\n" msg;
    2
  | Ok old_, Ok new_ ->
    let r = Obs.Bench_diff.compare ~old_ ~new_ ~max_regress in
    let num = function
      | Some v -> Printf.sprintf "%.6g" v
      | None -> "-"
    in
    let t =
      Snorlax_util.Tablefmt.create
        ~headers:[ "metric"; "old"; "new"; "delta"; "" ]
    in
    Snorlax_util.Tablefmt.set_align t
      Snorlax_util.Tablefmt.[ Left; Right; Right; Right; Left ];
    let shown = ref 0 in
    List.iter
      (fun (row : Obs.Bench_diff.row) ->
        if verbose || row.Obs.Bench_diff.regressed then begin
          incr shown;
          Snorlax_util.Tablefmt.add_row t
            [
              row.Obs.Bench_diff.key;
              num row.Obs.Bench_diff.old_v;
              num row.Obs.Bench_diff.new_v;
              (match row.Obs.Bench_diff.delta_pct with
              | Some d -> Printf.sprintf "%+.1f%%" d
              | None -> "-");
              (if row.Obs.Bench_diff.regressed then "REGRESSED"
               else if not row.Obs.Bench_diff.gated then "info"
               else "ok");
            ]
        end)
      r.Obs.Bench_diff.rows;
    if !shown > 0 then Snorlax_util.Tablefmt.print t;
    let gated =
      List.length
        (List.filter
           (fun (row : Obs.Bench_diff.row) -> row.Obs.Bench_diff.gated)
           r.Obs.Bench_diff.rows)
    in
    if r.Obs.Bench_diff.regressions = 0 then begin
      Printf.printf
        "bench-compare: %d metric(s), %d gated, none regressed beyond %.0f%%.\n"
        (List.length r.Obs.Bench_diff.rows)
        gated max_regress;
      0
    end
    else begin
      Printf.eprintf
        "bench-compare: %d of %d gated metric(s) regressed beyond %.0f%%.\n"
        r.Obs.Bench_diff.regressions gated max_regress;
      1
    end

let oracle_run bug_id all out decode_jobs decode_cache obs =
  apply_decode_opts decode_jobs decode_cache;
  if not (setup_obs obs) then 1
  else
  let bugs = select_bugs ~corpus:Corpus.Registry.all bug_id all in
  match bugs with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok bugs ->
    Printf.printf
      "Cross-checking %d bug(s): diagnosis pipeline vs happens-before \
       oracle...\n%!"
      (List.length bugs);
    (* The sweep fans one bug per lane; --decode-jobs (which sets the
       pool default) therefore scales the registry sweep too. *)
    let results =
      Oracle.Diffcheck.check_all
        ~sweep_jobs:(Snorlax_util.Pool.default_jobs ())
        bugs
    in
    let t =
      Snorlax_util.Tablefmt.create
        ~headers:
          [
            "bug"; "kind"; "verdict"; "races"; "events"; "pairs ok";
            "top pattern";
          ]
    in
    let errors = ref 0 and diverging = ref [] in
    List.iter
      (fun (id, r) ->
        match r with
        | Error msg ->
          incr errors;
          Snorlax_util.Tablefmt.add_row t
            [ id; "-"; "ERROR: " ^ msg; "-"; "-"; "-"; "-" ]
        | Ok (r : Oracle.Diffcheck.bug_result) ->
          if Oracle.Diffcheck.diverged r then diverging := (id, r) :: !diverging;
          Snorlax_util.Tablefmt.add_row t
            [
              id;
              r.Oracle.Diffcheck.bug_kind;
              Oracle.Diffcheck.classification_name
                r.Oracle.Diffcheck.classification;
              string_of_int r.Oracle.Diffcheck.oracle_races;
              string_of_int r.Oracle.Diffcheck.oracle_events;
              Printf.sprintf "%d/%d"
                (List.length r.Oracle.Diffcheck.checked
                - List.length r.Oracle.Diffcheck.spurious)
                (List.length r.Oracle.Diffcheck.checked);
              Option.value ~default:"-" r.Oracle.Diffcheck.top_pattern;
            ])
      results;
    Snorlax_util.Tablefmt.print t;
    List.iter
      (fun (id, (r : Oracle.Diffcheck.bug_result)) ->
        Printf.printf "\n%s DIVERGES (%s):\n" id
          (Oracle.Diffcheck.classification_name r.Oracle.Diffcheck.classification);
        List.iter
          (fun (c : Oracle.Diffcheck.pair_check) ->
            match c.Oracle.Diffcheck.verdict with
            | Analysis.Hb.No_conflict ->
              Printf.printf "  pair (%d, %d): no conflict observed\n"
                c.Oracle.Diffcheck.a_iid c.Oracle.Diffcheck.b_iid
            | Analysis.Hb.Conflict { ordering; path } ->
              Printf.printf "  pair (%d, %d): %s\n" c.Oracle.Diffcheck.a_iid
                c.Oracle.Diffcheck.b_iid
                (match ordering with
                | Analysis.Hb.Racy -> "racy"
                | Analysis.Hb.Lock_ordered -> "lock-ordered"
                | Analysis.Hb.Enforced ->
                  "ENFORCED: " ^ String.concat " -> " path))
          r.Oracle.Diffcheck.checked;
        List.iter
          (fun (m : Analysis.Hb.race) ->
            Printf.printf "  uncovered anchor race (%d, %d)\n"
              m.Analysis.Hb.a_iid m.Analysis.Hb.b_iid)
          r.Oracle.Diffcheck.missed;
        List.iter (fun n -> Printf.printf "  note: %s\n" n)
          r.Oracle.Diffcheck.notes)
      (List.rev !diverging);
    let agree = List.length results - List.length !diverging - !errors in
    Printf.printf "\n%d/%d agree, %d diverge, %d reproduction error(s).\n"
      agree (List.length results)
      (List.length !diverging)
      !errors;
    let json_ok = write_json out (Oracle.Diffcheck.to_json results) in
    if json_ok then Printf.printf "Oracle bench written to %s\n" out;
    let obs_ok = emit_obs obs in
    if !diverging = [] && !errors = 0 && json_ok && obs_ok then 0 else 1

let fix_run bug_id all seeds jobs min_fix_rate out decode_jobs decode_cache obs
    =
  apply_decode_opts decode_jobs decode_cache;
  if not (setup_obs obs) then 1
  else
  let bugs = select_bugs ~corpus:Corpus.Registry.all bug_id all in
  match bugs with
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    1
  | Ok bugs ->
    Printf.printf
      "Synthesizing and validating patches for %d bug(s) (%d-seed oracle \
       sweep each)...\n%!"
      (List.length bugs) seeds;
    (* One bug per lane, like the oracle sweep; --jobs caps the fan-out
       (default: the pool's recommended width). *)
    let sweep_jobs =
      match jobs with
      | Some n -> n
      | None -> Snorlax_util.Pool.default_jobs ()
    in
    let t0 = Obs.Span.wall_clock_ns () in
    let results = Fix.Validate.fix_all ~sweep_jobs ~seeds bugs in
    let wall_secs = (Obs.Span.wall_clock_ns () -. t0) /. 1e9 in
    let t =
      Snorlax_util.Tablefmt.create
        ~headers:
          [ "bug"; "kind"; "template"; "verdict"; "replay"; "sweep"; "notes" ]
    in
    List.iter
      (fun (id, r) ->
        match r with
        | Error msg ->
          Snorlax_util.Tablefmt.add_row t
            [ id; "-"; "-"; "ERROR: " ^ msg; "-"; "-"; "-" ]
        | Ok (b : Fix.Validate.bug_report) ->
          Snorlax_util.Tablefmt.add_row t
            [
              id;
              b.Fix.Validate.bug_kind;
              (match b.Fix.Validate.template with
              | Some tpl -> Fix.Patch.template_name tpl
              | None -> "-");
              Fix.Validate.verdict_name b.Fix.Validate.verdict;
              (if b.Fix.Validate.replay_ok then "ok" else "fail");
              Printf.sprintf "%d seeds" b.Fix.Validate.sweep_seeds;
              (let reason = Fix.Validate.verdict_reason b.Fix.Validate.verdict in
               if reason = "" then
                 Option.value ~default:"" b.Fix.Validate.patch
               else reason);
            ])
      results;
    Snorlax_util.Tablefmt.print t;
    let s = Fix.Validate.summarize ~wall_secs results in
    Printf.printf
      "\n%d/%d fixed (%.0f%%), %d not fixed, %d regressed, %d error(s); %d \
       validation runs in %.2f s: %.1f runs/s wall-clock, %.1f runs/s per \
       lane.\n"
      s.Fix.Validate.fixed s.Fix.Validate.bugs
      (100. *. s.Fix.Validate.fix_rate)
      s.Fix.Validate.not_fixed s.Fix.Validate.regressed s.Fix.Validate.errors
      s.Fix.Validate.total_runs s.Fix.Validate.wall_secs
      s.Fix.Validate.seeds_per_sec s.Fix.Validate.lane_seeds_per_sec;
    List.iter
      (fun (k, f, total) -> Printf.printf "  %-20s %d/%d fixed\n" k f total)
      s.Fix.Validate.by_kind;
    let json_ok = write_json out (Fix.Validate.to_json ~wall_secs results) in
    if json_ok then Printf.printf "Fix report written to %s\n" out;
    let obs_ok = emit_obs obs in
    let rate_ok = s.Fix.Validate.fix_rate >= min_fix_rate in
    if not rate_ok then
      Printf.eprintf "fix rate %.2f below the --min-fix-rate floor %.2f\n"
        s.Fix.Validate.fix_rate min_fix_rate;
    if rate_ok && json_ok && obs_ok then 0 else 1

let metrics_lint path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.eprintf "metrics-lint: %s\n" msg;
    2
  | text -> (
    match Obs.Openmetrics.lint text with
    | Ok () ->
      Printf.printf "%s: OpenMetrics exposition OK\n" path;
      0
    | Error msg ->
      Printf.eprintf "%s: %s\n" path msg;
      1)

(* --- cmdliner plumbing ------------------------------------------------- *)

let bug_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BUG_ID")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE.json"
        ~doc:
          "Write a Chrome trace-event JSON of the run (spans for every \
           diagnosis stage plus simulator/decoder counters); view it at \
           ui.perfetto.dev or chrome://tracing.")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE.json"
        ~doc:"Write the telemetry metrics registry (counters, gauges, \
              histograms) as JSON.")

let obs_summary_arg =
  Arg.(
    value & flag
    & info [ "obs-summary" ]
        ~doc:"Print the span tree and metric tables at the end.")

let metrics_text_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-text" ] ~docv:"FILE.txt"
        ~doc:
          "Write the telemetry metrics registry as OpenMetrics/Prometheus \
           text exposition (counters as _total, histograms with cumulative \
           le buckets, terminated by # EOF); lint it with `snorlax \
           metrics-lint`.")

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Attach a stderr sink for the structured event log and forward \
           events at this level or above (debug|info|warn|error). Without \
           this flag events only feed the flight recorders.")

let log_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-json" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write every event at or above the log level as one JSON object \
           per line.")

let obs_term =
  let mk trace_out metrics_out metrics_text obs_summary log_level log_json =
    { trace_out; metrics_out; metrics_text; obs_summary; log_level; log_json }
  in
  Term.(
    const mk $ trace_out_arg $ metrics_out_arg $ metrics_text_arg
    $ obs_summary_arg $ log_level_arg $ log_json_arg)

let decode_jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "decode-jobs" ] ~docv:"N"
        ~doc:
          "Domains used to decode trace snapshots in parallel (default: the \
           runtime's recommended domain count). 1 forces the sequential \
           path; results are identical either way.")

let decode_cache_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "decode-cache" ] ~docv:"N"
        ~doc:
          "Capacity of the decode memo cache shared by all diagnoses \
           (default 1024 entries, segmented LRU: decodes hit again are \
           protected from one-shot ones). 0 disables caching.")

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the 54-bug corpus")
    Term.(const (fun () -> list_bugs (); 0) $ const ())

let diagnose_cmd =
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Show all patterns")
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Reproduce a corpus bug and run Lazy Diagnosis on it")
    Term.(
      const diagnose_bug $ bug_arg $ verbose $ decode_jobs_arg
      $ decode_cache_arg $ obs_term)

let fleet_cmd =
  let endpoints =
    Arg.(
      value & opt int 8
      & info [ "endpoints" ] ~docv:"N"
          ~doc:"Simulated endpoints per scenario, each with its own seed \
                range.")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG_ID" ~doc:"Deploy one corpus scenario.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Deploy every evaluation-set scenario.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Print a snapshot line after every endpoint's shipment is \
             routed and serviced: packets offered, shed and drained, \
             throughput, queue depth and buckets so far.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate an in-production deployment: N endpoints run a corpus \
          scenario under the PT driver and ship wire-format failure/success \
          reports through the sharded stream service, which dedups them by \
          crash signature and diagnoses each bucket across endpoints")
    Term.(
      const fleet_run $ endpoints $ bug $ all $ watch $ decode_jobs_arg
      $ decode_cache_arg $ obs_term)

let chaos_cmd =
  let seeds =
    Arg.(
      value & opt int 25
      & info [ "seeds" ] ~docv:"N" ~doc:"Trials per (bug, fault class).")
  in
  let endpoints =
    Arg.(
      value & opt int 3
      & info [ "endpoints" ] ~docv:"E"
          ~doc:"Simulated endpoints replaying each bug.")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG_ID" ~doc:"Chaos-test one corpus scenario.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Chaos-test every evaluation-set scenario.")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"CLASS"
          ~doc:"Only inject one fault class (e.g. wire-drop).")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_chaos.json"
      & info [ "out" ] ~docv:"FILE.json" ~doc:"Where to write the bench JSON.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Replay corpus bugs through the tracer -> wire -> collector -> \
          diagnosis pipeline under seeded fault injection (ring corruption, \
          packet loss/duplication/reordering/bitflips, out-of-order \
          arrival, endpoint death, clock skew) and check the ingest path's \
          invariants after every trial; exits non-zero on any invariant \
          violation or escaped exception")
    Term.(
      const chaos_run $ seeds $ endpoints $ bug $ all $ fault $ out $ obs_term)

let stream_cmd =
  let endpoints =
    Arg.(
      value & opt int 32
      & info [ "endpoints" ] ~docv:"N" ~doc:"Initial fleet size.")
  in
  let ticks =
    Arg.(
      value & opt int 48
      & info [ "duration-ticks" ] ~docv:"T"
          ~doc:
            "Streaming duration in ticks; the diurnal load curve has a \
             24-tick period.")
  in
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"S"
          ~doc:"Collector shards behind the signature-hashing tracker.")
  in
  let shard_domains =
    Arg.(
      value & opt int 1
      & info [ "shard-domains" ] ~docv:"D"
          ~doc:
            "Domains for the shard service plane, at most one per \
             shard; 1 services inline on the submitting domain.  \
             Results are byte-identical whatever the value.")
  in
  let churn =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:"Enable per-tick endpoint join/leave/crash churn.")
  in
  let fault =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"CLASS"
          ~doc:"Inject one chaos fault class over the whole stream.")
  in
  let shed =
    Arg.(
      value & opt string "drop-oldest"
      & info [ "shed" ] ~docv:"POLICY"
          ~doc:
            "Overload shedding policy when a shard queue is full: \
             drop-oldest or drop-newest.")
  in
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Print a snapshot line after every tick: load, live endpoints, \
             offered/shed/drained counts, queue depth and bucket count.")
  in
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG_ID" ~doc:"Stream one corpus scenario.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Stream every evaluation-set scenario.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Traffic generator seed.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_stream.json"
      & info [ "out" ] ~docv:"FILE.json" ~doc:"Where to write the bench JSON.")
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Run a continuous streaming fleet: a seeded traffic generator \
          drives endpoints with diurnal/bursty load (optionally with churn \
          and fault injection), a tracker hashes crash signatures across \
          collector shards with bounded ingest queues and drop-oldest/\
          drop-newest shedding, and each bucket's diagnosis updates \
          incrementally as reports arrive; exits non-zero if the \
          incremental diagnosis diverges from a from-scratch batch or the \
          backpressure accounting fails to reconcile")
    Term.(
      const stream_run $ endpoints $ ticks $ shards $ shard_domains $ churn
      $ fault $ shed $ watch $ bug $ all $ seed $ out $ decode_jobs_arg
      $ decode_cache_arg $ obs_term)

let dump_cmd =
  Cmd.v (Cmd.info "dump" ~doc:"Print a corpus program's LIR")
    Term.(const dump_bug $ bug_arg)

let validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Reproduce and diagnose the whole 54-bug corpus, checking every \
          diagnosis against its ground truth")
    Term.(const validate $ const ())

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Diagnose a corpus bug, record the order of its racing accesses \
          in the failing run, and replay that coarse schedule (section \
          3.3's record/replay implication)")
    Term.(const replay_bug $ bug_arg)

let bench_compare_cmd =
  let old_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json")
  in
  let new_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json")
  in
  let max_regress =
    Arg.(
      value & opt float 10.0
      & info [ "max-regress" ] ~docv:"PCT"
          ~doc:
            "Allowed relative increase for lower-is-better metrics \
             (durations, byte counts, miss/error counters) before the \
             comparison fails.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Show every metric, not just regressions.")
  in
  Cmd.v
    (Cmd.info "bench-compare"
       ~doc:
         "Diff two BENCH_*.json artifacts and exit non-zero when a \
          lower-is-better metric regressed beyond the tolerance; other \
          metrics are informational")
    Term.(const bench_compare $ old_arg $ new_arg $ max_regress $ verbose)

let oracle_cmd =
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG_ID" ~doc:"Cross-check one corpus bug.")
  in
  let all =
    Arg.(
      value & flag & info [ "all" ] ~doc:"Cross-check the full 54-bug corpus.")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_oracle.json"
      & info [ "out" ] ~docv:"FILE.json"
          ~doc:"Where to write the differential-check artifact.")
  in
  Cmd.v
    (Cmd.info "oracle"
       ~doc:
         "Differential cross-check: replay each bug's failing interleaving \
          under a vector-clock happens-before oracle and verify every pair \
          the diagnosis pipeline blames (agree / diagnosis-miss / \
          diagnosis-spurious / oracle-only), and check every decoded ring \
          against the path its replayed thread executed; exits non-zero on \
          any divergence or decode mismatch")
    Term.(
      const oracle_run $ bug $ all $ out $ decode_jobs_arg $ decode_cache_arg
      $ obs_term)

let fix_cmd =
  let bug =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"BUG_ID" ~doc:"Fix one corpus bug.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"Fix the full 54-bug corpus.")
  in
  let seeds =
    Arg.(
      value
      & opt int Fix.Validate.default_sweep_seeds
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Fresh seeds swept under the happens-before oracle per patch.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Pool lanes fixing bugs in parallel (default: the runtime's \
             recommended domain count); the verdict table is identical at \
             any width.")
  in
  let min_fix_rate =
    Arg.(
      value
      & opt float 0.0
      & info [ "min-fix-rate" ] ~docv:"RATE"
          ~doc:
            "Exit non-zero when the corpus-wide fix rate falls below this \
             floor (0.0 - 1.0).")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_fix.json"
      & info [ "out" ] ~docv:"FILE.json"
          ~doc:"Where to write the fix-validation artifact.")
  in
  Cmd.v
    (Cmd.info "fix"
       ~doc:
         "Close the loop: synthesize a candidate patch from each bug's \
          diagnosis (lock insertion, signal/wait ordering, lock-order \
          gating), then validate it by replaying the original failing seed \
          and sweeping fresh seeds under the happens-before oracle; reports \
          a fixed / not-fixed / regressed verdict per bug")
    Term.(
      const fix_run $ bug $ all $ seeds $ jobs $ min_fix_rate $ out
      $ decode_jobs_arg $ decode_cache_arg $ obs_term)

let metrics_lint_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.txt")
  in
  Cmd.v
    (Cmd.info "metrics-lint"
       ~doc:
         "Check a file written by --metrics-text against the OpenMetrics \
          text-exposition rules (counter _total naming, cumulative \
          monotone le buckets, +Inf/_count agreement, # EOF terminator); \
          exits non-zero on the first violation")
    Term.(const metrics_lint $ file_arg)

let experiment_cmd =
  let exp_name =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let samples =
    Arg.(
      value
      & opt (some int) None
      & info [ "samples" ] ~doc:"Failing runs per bug for the hypothesis study")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Reproduce a table/figure: hypothesis (Tables 1-3), accuracy, \
          stages (Fig 7), analysis-time (Table 4), overhead (Fig 8), \
          scalability (Fig 9), latency, ablations, or all")
    Term.(const experiment $ exp_name $ samples)

let main_cmd =
  Cmd.group
    (Cmd.info "snorlax" ~version:"1.0"
       ~doc:
         "Lazy Diagnosis of in-production concurrency bugs (SOSP'17 \
          reproduction)")
    [
      list_cmd; diagnose_cmd; fleet_cmd; stream_cmd; chaos_cmd; oracle_cmd;
      fix_cmd; dump_cmd; replay_cmd; validate_cmd; experiment_cmd;
      bench_compare_cmd; metrics_lint_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
