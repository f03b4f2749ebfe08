(** Step 7 of Lazy Diagnosis: statistical diagnosis.  Each candidate
    pattern's presence is evaluated over the failing execution(s) and the
    successful executions collected at the failure location (step 8); the
    patterns are scored by F1 = harmonic mean of precision and recall
    (§4.5) and the top scorer is reported as the root cause. *)

type scored = {
  pattern : Patterns.t;
  f1 : float;
  precision : float;
  recall : float;
  present_in_failing : int;
  present_in_successful : int;
}

val of_counts :
  Patterns.t ->
  present_in_failing:int ->
  present_in_successful:int ->
  n_failing:int ->
  scored
(** Build one scored entry from presence counts alone.  The counts come
    from {!Diagnosis.tally}, which the batch pipeline runs over every
    trace and the streaming engine as each trace arrives. *)

val rank : proximity_tp:Trace_processing.t -> scored list -> scored list
(** The diagnosis order ({!Diagnosis.rank} applies it): descending F1,
    ties prefer the simpler kind ({!Patterns.kind_rank}: order, then
    deadlock, then atomicity), same-kind ties prefer the remote access
    whose last instance in [proximity_tp] (the first failing trace)
    executed latest; stable beyond that, i.e. {!Patterns.generate}'s
    canonical order. *)

val top : scored list -> scored option
(** Highest-F1 pattern, if any. *)

val is_unique_top : scored list -> bool
(** False when several patterns tie at the maximal F1 — the case §4.5
    says requires manual disambiguation. *)
