(** Oracle-backed validation of synthesized patches, and the corpus-wide
    [snorlax fix] sweep.

    A patch earns [Fixed] only on three kinds of evidence together: the
    original failing seed replayed under the traced harness completes;
    a seed sweep with the HB oracle attached shows no failure, hang or
    racy pair the pristine module did not already show; and the
    diagnosed pattern's own claims are dead (its pairs no longer racy,
    deadlock crossings gate-guarded).  Baseline behaviour can only
    demote a patch to [Not_fixed]; behaviour the baseline never showed
    makes it [Regressed]. *)

type verdict = Fixed | Not_fixed of string | Regressed of string

val verdict_name : verdict -> string
val verdict_reason : verdict -> string

type judgement = {
  verdict : verdict;
  replay_ok : bool;  (** the failing seed completed under the patch *)
  runs : int;  (** simulated executions this judgement performed *)
  notes : string list;
}

type attempt = {
  template : Patch.template;
  outcome : (judgement, string) result;  (** [Error] = synthesis refused *)
}

type bug_report = {
  bug_id : string;
  bug_kind : string;
  pattern : string option;
  verdict : verdict;
  template : Patch.template option;
  patch : string option;
  attempts : attempt list;
  replay_ok : bool;
  sweep_seeds : int;
  runs : int;
      (** simulated executions behind the verdict: the reproduction runs
          up to the first failure ([Runner.collected.runs_needed]), the
          pristine baseline runs, and every template's failing-seed
          replay and oracle sweep — not the runs that collected
          successful traces for the diagnosis *)
  secs : float;  (** wall-clock time of this bug's [fix_bug] *)
  notes : string list;
}

type baseline
(** Pristine-module behaviour over the sweep seeds: failure signatures,
    racy pairs, hangs.  Computed once per bug and shared across the
    template ladder. *)

val baseline_of :
  collected:Corpus.Runner.collected -> entry:string -> seeds:int list ->
  baseline

val sweep_seed_list :
  collected:Corpus.Runner.collected -> seeds:int -> int list
(** The failing seed plus [seeds] spread-out fresh seeds. *)

val judge_patch :
  bug:Corpus.Bug.t ->
  collected:Corpus.Runner.collected ->
  pattern:Snorlax_core.Patterns.t ->
  ?baseline:baseline ->
  sweep_seeds:int list ->
  Lir.Irmod.t ->
  judgement
(** Judge one patched module (any module whose untouched iids match the
    collected build — including deliberately wrong patches, which the
    negative tests feed through here). *)

val default_sweep_seeds : int

val fix_bug :
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  ?seeds:int ->
  Corpus.Bug.t ->
  (bug_report, string) result
(** Reproduce, diagnose, then walk the {!Patch.candidates} ladder until a
    template earns [Fixed]; the report carries every attempt.  [Error _]
    when the bug will not reproduce.  Emits [fix/fixed], [fix/not_fixed]
    and [fix/regressed] counters into the ambient {!Obs.Scope}. *)

val fix_all :
  ?jobs:int ->
  ?sweep_jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  ?seeds:int ->
  Corpus.Bug.t list ->
  (string * (bug_report, string) result) list
(** [fix_bug] over a bug list, tagged by bug id, in input order, one
    bug per {!Obs.Scope.sweep} lane of width [sweep_jobs] (default 1 =
    the sequential loop).  [jobs] sets nested decode width on the
    sequential path only; parallel lanes always decode sequentially.  The
    result list is the same at any width. *)

type summary = {
  bugs : int;
  fixed : int;
  not_fixed : int;
  regressed : int;
  errors : int;
  fix_rate : float;  (** fixed / all bugs, reproduction failures included *)
  by_kind : (string * int * int) list;  (** kind, fixed, total *)
  total_runs : int;  (** sum of [bug_report.runs] *)
  total_secs : float;  (** sum of [bug_report.secs]: time spent per lane *)
  wall_secs : float;  (** the sweep's wall-clock time *)
  seeds_per_sec : float;  (** [total_runs / wall_secs] *)
  lane_seeds_per_sec : float;
      (** [total_runs / total_secs]: one lane's validation throughput,
          about [seeds_per_sec] for a sequential sweep *)
}

val summarize :
  wall_secs:float -> (string * (bug_report, string) result) list -> summary
(** [wall_secs] is the sweep's measured wall-clock time.  Summed per-bug
    times would overstate it for a parallel sweep. *)

val to_json :
  wall_secs:float -> (string * (bug_report, string) result) list -> Obs.Json.t
(** The [BENCH_fix.json] document: summary block (fix rate overall and
    per bug kind, validation seeds/sec per wall-clock second and per
    lane) plus per-bug verdicts and attempt ladders. *)
