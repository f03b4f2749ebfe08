(** The chaos trial loop: reproduce each corpus bug once in the lab, then
    replay it through the full wire -> collector -> diagnosis pipeline
    [seeds] times per fault class, with {!Inject} damaging the replay and
    {!Invariant} auditing the collector afterwards.

    Three properties are enforced by the harness itself, on every trial:
    exceptions never escape the ingest path (a raise is recorded as an
    uncaught-exception count, the trial keeps going), the first seed of
    every (bug, class) pair is executed twice and must produce identical
    observable results (fixed-seed determinism), and a baseline
    reproduction failure turns the whole run into [Error] — no partial
    report. *)

type trial = {
  cls : Fault.cls;
  seed : int;
  bug_id : string;
  faults : int;  (** mutation events injected into this trial's stream *)
  packets_sent : int;
  failing_sent : int;
  buckets : int;
  diagnosed : int;  (** buckets whose diagnosis produced a top pattern *)
  rc_matched : int;  (** ... matching the bug's ground truth *)
  top_f1 : float;  (** best bucket F1; 0 when no bucket diagnosed *)
  violations : string list;
  uncaught : string option;  (** exception that escaped, if any *)
  flight_tail : string option;
      (** flight-recorder dump of the collector events leading up to the
          failure; [None] on clean trials.  Carries wall-clock stamps,
          so it decorates {!report.violation_examples} but is excluded
          from the fixed-seed determinism comparison. *)
}

type class_summary = {
  summary_cls : Fault.cls;
  trials : int;
  faults_injected : int;
  packets_sent : int;
  violation_count : int;
  uncaught_count : int;
  nondeterministic : int;  (** (bug, class) pairs whose re-run diverged *)
  diagnosed_trials : int;  (** trials where >= 1 bucket diagnosed *)
  rc_matched_trials : int;
  survival_f1 : float;
      (** mean best-bucket F1 over trials that produced >= 1 bucket —
          how well diagnosis survives this fault class *)
}

type report = {
  seeds : int;
  endpoints : int;
  bug_ids : string list;
  classes : class_summary list;  (** in {!Fault.all} order *)
  total_faults : int;
  total_violations : int;
  total_uncaught : int;
  violation_examples : string list;  (** first few, for error output *)
}

val run :
  ?policy:Fleet.Collector.policy ->
  ?endpoints:int ->
  ?classes:Fault.cls list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  seeds:int ->
  Corpus.Bug.t list ->
  (report, string) result
(** [run ~seeds bugs] executes [seeds] trials per (bug, fault class).
    [endpoints] (default 3) simulated machines replay each bug.
    [Error] when [seeds < 1], [bugs] is empty, or a bug's lab baseline
    fails to reproduce.  [progress] receives one line per completed bug.
    Each bug is one {!Obs.Scope.sweep} lane of width [jobs] (default 1)
    — baseline collect and all that bug's trials together, with a
    bug-private server-build table.  Trials are independent per (bug,
    class, seed), so the report is identical whatever [jobs]; the first
    baseline failure in bug order is the one reported, and [progress]
    fires on the calling domain once every lane is back, in bug
    order. *)

val to_json : report -> Obs.Json.t
(** The BENCH_chaos.json document: run parameters, per-class rows
    (faults injected, invariant violations, uncaught exceptions,
    determinism, survival F1) and fleet-wide totals. *)

val ok : report -> bool
(** True when the run recorded zero invariant violations, zero uncaught
    exceptions and zero nondeterministic pairs — the chaos gate. *)
