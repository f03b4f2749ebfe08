(** Incremental per-bucket diagnosis: the resident form of the batch
    pipeline ({!Snorlax_core.Diagnosis.diagnose}) for a mothership that
    never stops receiving reports: a second driver over the batch's own
    stages 3–7 ({!Snorlax_core.Diagnosis.derive}, [tally], [rank]) that
    differs only in when it calls them.

    The engine caches one trace processing per report it has seen (so a
    trace is decoded exactly once, and even that through the shared
    {!Pt.Decode_cache}) and keeps the per-pattern presence counts.  Two
    update regimes:

    - {b Fast path} — the new report's executed-instruction set is a
      subset of what the bucket has already seen (the common fleet case:
      another endpoint hitting the same schedule).  Nothing derived from
      the executed union can change, so the update is one [tally] of the
      new trace — no points-to, no pattern generation, no re-walk of old
      traces.
    - {b Re-derive} — the report executed new code.  [derive] runs again
      over the grown union and every {e cached} trace processing is
      re-tallied; deferred until the next {!results} call so a burst of
      novel reports costs one re-derivation.

    Either way {!results} returns the scored list a from-scratch
    {!Snorlax_core.Diagnosis.diagnose} over the same reports would:
    presence counts are order-independent and [rank] breaks ties on the
    first failing trace, as in the batch.  Only the fast path's counts
    are not shared with the batch; tests recount them from scratch. *)

type t

type snapshot = {
  scored : Snorlax_core.Statistics.scored list;
      (** every candidate pattern, ranked exactly as the batch ranks *)
  top : Snorlax_core.Statistics.scored option;
  unique_top : bool;
  anchor_iid : int;
  snap_failing : int;  (** failing reports folded in so far *)
  snap_successful : int;
  rederives : int;  (** full re-derivations performed (>= 1 once diagnosed) *)
  fast_updates : int;  (** counter-only updates — the incremental win *)
}

val create : Lir.Irmod.t -> config:Pt.Config.t -> t
(** One engine per bucket; [m] is the server's build of the bucket's
    scenario, [config] the tracer parameters its reports decode under. *)

val add_failing :
  t ->
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  Snorlax_core.Report.failing_report ->
  unit
(** Fold one failing report in (decodes its traces once, caching the
    trace processing).  The first failing report anchors the diagnosis,
    exactly as in the batch pipeline. *)

val add_successful :
  t ->
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  Snorlax_core.Report.success_report ->
  unit

val results : t -> snapshot option
(** Current diagnosis, re-deriving first if a report grew the executed
    union since the last call.  [None] until a failing report arrives —
    successes alone anchor nothing. *)

val n_failing : t -> int
(** Reports folded in so far — what a caller feeding the engine from a
    collector bucket's stable-prefix report lists uses to find the new
    suffix. *)

val n_successful : t -> int

val rederives : t -> int

val fast_updates : t -> int
