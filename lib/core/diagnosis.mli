(** The end-to-end server-side pipeline (Figure 2, steps 2–7): trace
    processing, hybrid scope-restricted points-to analysis, type-based
    ranking, bug-pattern computation, and statistical diagnosis.

    The per-stage candidate counts feed Figure 7 (stage contributions);
    the timings feed Table 4 (hybrid vs whole-program analysis time). *)

type stage_counts = {
  total_instrs : int;  (** static instructions in the module *)
  after_trace_processing : int;  (** executed instructions (step 2) *)
  after_points_to : int;  (** candidates aliasing the anchor (step 4) *)
  after_type_ranking : int;  (** rank-1 candidates prioritized (step 5) *)
  after_patterns : int;  (** distinct instructions in patterns (step 6) *)
  after_statistics : int;  (** instructions in the top pattern (step 7) *)
}

type timings = {
  hybrid_analysis_s : float;  (** points-to over the executed scope *)
  pipeline_s : float;  (** full steps 2–7 *)
}
(** Compatibility shim: both fields are now derived from the telemetry
    spans (wall-clock), not [Sys.time] CPU sampling. *)

val stage_names : string list
(** The seven pipeline stage span names, in execution order:
    [diagnosis/layout], [diagnosis/trace_processing],
    [diagnosis/points_to], [diagnosis/anchor], [diagnosis/type_ranking],
    [diagnosis/patterns], [diagnosis/statistics].  Each carries a
    [candidates] arg with that stage's funnel count. *)

type result = {
  scored : Statistics.scored list;
  top : Statistics.scored option;
  unique_top : bool;
  stage_counts : stage_counts;
  timings : timings;
  anchor_iid : int;  (** the resolved memory-access anchor *)
  executed_count : int;
  desynced : bool;
  spans : Obs.Span.span list;
      (** this run's telemetry: the [diagnosis] root span followed by the
          seven {!stage_names} stage spans, in start order.  Recorded into
          the ambient {!Obs.Scope} when one is enabled, a private
          collector otherwise. *)
}

val diagnose :
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  failing:Report.failing_report list ->
  successful:Report.success_report list ->
  result
(** Diagnose from one or more failing reports (Snorlax needs exactly one;
    more only sharpen statistics) plus successful-execution reports.
    Raises [Invalid_argument] when [failing] is empty.

    [?jobs] and [?cache] govern the trace-processing stage (see
    {!Trace_processing.process}): decode parallelism defaults to
    {!Snorlax_util.Pool.default_jobs} and decode memoization to
    {!Pt.Decode_cache.shared}. *)

(** {2 Stages 3–7}

    {!diagnose} and [Stream.Incremental] are both drivers over {!derive},
    {!tally} and {!rank}: a batch and a streaming diagnosis of the same
    reports agree by construction, and the derivation changes in one place. *)

type derived = {
  points_to : Analysis.Pointsto.t;  (** hybrid, over the executed scope *)
  anchor_iid : int;  (** {!resolve_anchor} of the first failing report *)
  candidates : Type_ranking.candidate list;
  patterns : Patterns.t list;  (** in {!Patterns.generate}'s canonical order *)
}

val derive :
  Lir.Irmod.t ->
  executed:Trace_processing.Iset.t ->
  first:Report.failing_report ->
  first_tp:Trace_processing.t ->
  derived
(** Stages 3–6: points-to over [executed], the anchor resolved in
    [first_tp], type-ranked candidates (frees first for a use-after-free)
    and the first failing trace's patterns around the resolved anchor.
    Valid until some report executes code outside [executed]. *)

val tally : Lir.Irmod.t -> derived -> int array -> Trace_processing.t -> unit
(** Stage 7's counting: add one to [counts.(i)] for every pattern [i] of
    [derived.patterns] present in the trace.  Order-independent. *)

val rank :
  derived ->
  first_tp:Trace_processing.t ->
  n_failing:int ->
  in_failing:int array ->
  in_successful:int array ->
  Statistics.scored list
(** Stage 7's scoring: {!Statistics.of_counts} per pattern from the
    tallied counts, then {!Statistics.rank} with [first_tp] (the first
    failing trace) as the proximity tie-breaker. *)

val process_failing :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  Report.failing_report ->
  Trace_processing.t
(** Decode a failing report's traces, replaying each blocked/failing
    thread to its reported pc (see {!tails_of}). *)

val tails_of : Lir.Irmod.t -> Report.failing_report -> (int * int * int) list
(** The [(tid, stop_pc, t_hi)] tail stops of a failing report: the
    failing thread at its faulting pc, or every deadlocked thread at its
    blocked lock call, each at the failure time. *)

val process_successful :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  Report.success_report ->
  Trace_processing.t
(** Decode a successful report, replaying the triggering thread to the
    watched pc. *)

val resolve_anchor :
  Lir.Irmod.t -> Trace_processing.t -> Report.failing_report -> int
(** The memory access the diagnosis anchors on: the failing instruction
    itself when it is a load/store/lock call, otherwise the nearest
    preceding memory access in the failing thread (assert-style failures
    fail on a register value fed by that access). *)
