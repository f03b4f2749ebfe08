module Core = Snorlax_core
module Collector = Fleet.Collector
module Endpoint = Fleet.Endpoint
module Prng = Snorlax_util.Prng

type trial = {
  cls : Fault.cls;
  seed : int;
  bug_id : string;
  faults : int;
  packets_sent : int;
  failing_sent : int;
  buckets : int;
  diagnosed : int;
  rc_matched : int;
  top_f1 : float;
  violations : string list;
  uncaught : string option;
  flight_tail : string option;
      (* the trial's flight-recorder dump, materialized only when an
         invariant fired; carries wall-clock stamps, so it decorates the
         reported examples but stays out of [observable] *)
}

type class_summary = {
  summary_cls : Fault.cls;
  trials : int;
  faults_injected : int;
  packets_sent : int;
  violation_count : int;
  uncaught_count : int;
  nondeterministic : int;
  diagnosed_trials : int;
  rc_matched_trials : int;
  survival_f1 : float;
}

type report = {
  seeds : int;
  endpoints : int;
  bug_ids : string list;
  classes : class_summary list;
  total_faults : int;
  total_violations : int;
  total_uncaught : int;
  violation_examples : string list;
}

(* One generator per (user seed, class, bug): trials are independent and
   each is reproducible in isolation. *)
let trial_prng ~seed ~cls ~bug_id =
  Prng.create
    ~seed:((seed * 0x9e3779b1) lxor Hashtbl.hash (Fault.name cls, bug_id))

(* Run the collector + per-bucket diagnosis over one faulty stream.  Any
   exception escaping this function is a totality violation, caught and
   recorded by the caller. *)
let ingest_and_diagnose ~modules ~policy ~cls ~(stream : Inject.stream) =
  let collector = Collector.create ~policy ~modules () in
  List.iter
    (fun p -> ignore (Collector.ingest collector p : (unit, string) result))
    stream.Inject.packets;
  let outcomes =
    List.map
      (fun b ->
        let v =
          Collector.verdict collector b
            (Collector.diagnose collector b).Core.Diagnosis.top
        in
        {
          Invariant.diagnosed = v.Collector.top_pattern <> None;
          rc_match = v.Collector.root_cause_match;
          f1 = v.Collector.f1;
        })
      (Collector.buckets collector)
  in
  let violations =
    Invariant.check ~collector ~policy ~cls
      ~failing_sent:stream.Inject.failing_sent ~outcomes
  in
  (outcomes, violations)

let run_trial ~modules ~policy ~endpoints bl cls seed =
  let bug_id = bl.Endpoint.bug.Corpus.Bug.id in
  let prng = trial_prng ~seed ~cls ~bug_id in
  let stream = Inject.build ~prng ~cls ~endpoints bl in
  Obs.Scope.count "chaos/trials" 1;
  Obs.Scope.count "chaos/faults" stream.Inject.faults;
  (* The trial's black box: collector log events (rejects, new buckets,
     pending evictions) land in this ring while the faulty stream is
     ingested; its tail is only materialized when an invariant fires. *)
  let recorder = Obs.Log.Recorder.create ~capacity:32 () in
  let outcomes, violations, uncaught =
    match
      Obs.Log.with_recorder recorder (fun () ->
          ingest_and_diagnose ~modules ~policy ~cls ~stream)
    with
    | outcomes, violations -> (outcomes, violations, None)
    | exception e -> ([], [], Some (Printexc.to_string e))
  in
  if violations <> [] then
    Obs.Scope.count "chaos/violations" (List.length violations);
  if uncaught <> None then Obs.Scope.count "chaos/uncaught" 1;
  let flight_tail =
    if violations = [] && uncaught = None then None
    else
      match Obs.Log.Recorder.dump recorder with
      | "" -> None
      | tail -> Some tail
  in
  {
    cls;
    seed;
    bug_id;
    faults = stream.Inject.faults;
    packets_sent = stream.Inject.packets_sent;
    failing_sent = stream.Inject.failing_sent;
    buckets = List.length outcomes;
    diagnosed =
      List.length (List.filter (fun o -> o.Invariant.diagnosed) outcomes);
    rc_matched =
      List.length (List.filter (fun o -> o.Invariant.rc_match) outcomes);
    top_f1 =
      List.fold_left (fun acc o -> Float.max acc o.Invariant.f1) 0.0 outcomes;
    violations;
    uncaught;
    flight_tail;
  }

(* Everything the fixed-seed determinism invariant compares: the faulty
   stream, the collector's routing and every bucket's diagnosis must be
   pure functions of (bug, class, seed). *)
let observable t =
  ( t.faults,
    t.packets_sent,
    t.failing_sent,
    t.buckets,
    t.diagnosed,
    t.rc_matched,
    t.top_f1,
    t.violations,
    t.uncaught )

let summarize cls trials ~nondeterministic =
  let with_buckets = List.filter (fun t -> t.buckets > 0) trials in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 trials in
  {
    summary_cls = cls;
    trials = List.length trials;
    faults_injected = sum (fun t -> t.faults);
    packets_sent = sum (fun t -> t.packets_sent);
    violation_count = sum (fun t -> List.length t.violations);
    uncaught_count = sum (fun t -> if t.uncaught = None then 0 else 1);
    nondeterministic;
    diagnosed_trials = sum (fun t -> if t.diagnosed > 0 then 1 else 0);
    rc_matched_trials = sum (fun t -> if t.rc_matched > 0 then 1 else 0);
    survival_f1 =
      (match with_buckets with
      | [] -> 0.0
      | ts ->
        List.fold_left (fun acc t -> acc +. t.top_f1) 0.0 ts
        /. float_of_int (List.length ts));
  }

(* One bug's full trial matrix: for each class, [seeds] trials plus the
   fixed-seed determinism replay.  The trials share one server-build
   cache, private to this bug. *)
let trials_for_bug ~policy ~endpoints ~classes ~seeds bl =
  let modules = Hashtbl.create 16 in
  List.map
    (fun cls ->
      let trials =
        List.init seeds (fun seed ->
            run_trial ~modules ~policy ~endpoints bl cls seed)
      in
      (* Fixed-seed determinism: the first seed, replayed. *)
      let again = run_trial ~modules ~policy ~endpoints bl cls 0 in
      let nondet =
        if observable again <> observable (List.hd trials) then 1 else 0
      in
      (cls, trials, nondet))
    classes

let progress_line bl ~classes ~seeds =
  Printf.sprintf "%s: %d trials across %d fault classes"
    bl.Endpoint.bug.Corpus.Bug.id
    (seeds * List.length classes)
    (List.length classes)

(* One {!Obs.Scope.sweep} lane per bug: baseline collect, then that
   bug's whole trial matrix.  The first baseline error in input order
   wins; progress fires once the lanes are back, in bug order. *)
let sweep_lanes ~jobs ~policy ~endpoints ~classes ~seeds ~progress bugs =
  let lanes =
    Obs.Scope.sweep ~jobs
      (fun bug ->
        match Endpoint.reproduce ~config:Pt.Config.default ~endpoint:0 bug with
        | Ok bl -> Ok (bl, trials_for_bug ~policy ~endpoints ~classes ~seeds bl)
        | Error msg ->
          Error
            (Printf.sprintf "chaos: baseline for %s failed: %s"
               bug.Corpus.Bug.id msg))
      bugs
  in
  match List.find_map (function Error e -> Some e | Ok _ -> None) lanes with
  | Some e -> Error e
  | None ->
    let lanes = List.filter_map Result.to_option lanes in
    List.iter (fun (bl, _) -> progress (progress_line bl ~classes ~seeds)) lanes;
    Ok lanes

let run ?(policy = Collector.default_policy) ?(endpoints = 3)
    ?(classes = Fault.all) ?(progress = fun _ -> ()) ?(jobs = 1) ~seeds bugs =
  if seeds < 1 then Error "chaos: seeds < 1"
  else if bugs = [] then Error "chaos: no bugs selected"
  else if endpoints < 1 then Error "chaos: endpoints < 1"
  else
    Obs.Scope.with_span "chaos"
      ~args:
        [
          ("seeds", Obs.Span.Int seeds);
          ("bugs", Obs.Span.Int (List.length bugs));
        ]
    @@ fun () ->
    match sweep_lanes ~jobs ~policy ~endpoints ~classes ~seeds ~progress bugs with
    | Error e -> Error e
    | Ok lanes ->
      let baselines = List.map fst lanes in
      let trials_of cls =
        List.concat_map
          (fun (_, per_class) ->
            List.concat_map
              (fun (c, ts, _) -> if c = cls then ts else [])
              per_class)
          lanes
      in
      let nondet_of cls =
        List.fold_left
          (fun acc (_, per_class) ->
            List.fold_left
              (fun a (c, _, nd) -> if c = cls then a + nd else a)
              acc per_class)
          0 lanes
      in
      let summaries =
        List.map
          (fun cls ->
            summarize cls (trials_of cls) ~nondeterministic:(nondet_of cls))
          classes
      in
      let all_trials = List.concat_map trials_of classes in
      (* A reported example is the violation plus the trial's flight-
         recorder tail — the events leading up to the failure, not just
         the bare reconciliation diff.  Tails carry wall-clock stamps,
         which is why they decorate examples here instead of living in
         [trial.violations] (compared by the determinism invariant). *)
      let with_tail t msg =
        match t.flight_tail with
        | None -> msg
        | Some tail ->
          msg ^ "\n  "
          ^ String.concat "\n  " (String.split_on_char '\n' tail)
      in
      let examples =
        List.filteri
          (fun i _ -> i < 5)
          (List.concat_map
             (fun t -> List.map (with_tail t) t.violations)
             all_trials
          @ List.filter_map
              (fun t -> Option.map (with_tail t) t.uncaught)
              all_trials)
      in
      Ok
        {
          seeds;
          endpoints;
          bug_ids =
            List.map (fun bl -> bl.Endpoint.bug.Corpus.Bug.id) baselines;
          classes = summaries;
          total_faults =
            List.fold_left (fun a s -> a + s.faults_injected) 0 summaries;
          total_violations =
            List.fold_left (fun a s -> a + s.violation_count) 0 summaries;
          total_uncaught =
            List.fold_left
              (fun a s -> a + s.uncaught_count + s.nondeterministic)
              0 summaries;
          violation_examples = examples;
        }

let ok r = r.total_violations = 0 && r.total_uncaught = 0

let to_json r =
  let open Obs.Json in
  Obj
    [
      ("bench", String "chaos");
      ("seeds", Int r.seeds);
      ("endpoints", Int r.endpoints);
      ("bugs", List (List.map (fun id -> String id) r.bug_ids));
      ( "classes",
        List
          (List.map
             (fun s ->
               Obj
                 [
                   ("class", String (Fault.name s.summary_cls));
                   ( "payload_preserving",
                     Bool (Fault.payload_preserving s.summary_cls) );
                   ("trials", Int s.trials);
                   ("faults_injected", Int s.faults_injected);
                   ("packets_sent", Int s.packets_sent);
                   ("invariant_violations", Int s.violation_count);
                   ("uncaught_exceptions", Int s.uncaught_count);
                   ("nondeterministic", Int s.nondeterministic);
                   ("diagnosed_trials", Int s.diagnosed_trials);
                   ("root_cause_matched_trials", Int s.rc_matched_trials);
                   ("survival_f1", Float s.survival_f1);
                 ])
             r.classes) );
      ("total_faults_injected", Int r.total_faults);
      ("total_invariant_violations", Int r.total_violations);
      ("total_uncaught_exceptions", Int r.total_uncaught);
      ("ok", Bool (ok r));
    ]
