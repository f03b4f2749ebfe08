(** Differential cross-check: run a corpus bug through BOTH the
    trace-based diagnosis pipeline and the ground-truth happens-before
    oracle, then compare what each one blames.

    The oracle side re-executes the bug's first failing seed with the
    {!Observe} hooks attached.  Observation is free in virtual time, so
    the re-run reproduces the original failing interleaving exactly, and
    the oracle judges the very execution the diagnosis decoded from PT
    traces.

    Verdict semantics per claimed instruction pair of the top pattern:
    a pair the oracle sees as [Racy] or [Lock_ordered] is confirmed
    (both can execute in either order across runs); a pair the oracle
    proves [Enforced] — ordered by program order / fork / join / condvar
    edges that hold in every execution — can never flip, so a diagnosis
    claiming it is spurious.  [No_conflict] (the instructions never
    touched overlapping memory from different threads) is likewise
    spurious.  Deadlock cycles are checked against the oracle's
    hold-while-acquiring lock-order facts instead.

    Extra oracle races that the top pattern does not mention are
    informational only — benign races (stats counters, racy flags read
    far from the failure) must not turn an agreement into a divergence.
    Only races involving the diagnosis anchor can demote a result to
    [Diagnosis_miss]. *)

type classification =
  | Agree
      (** every pair the top pattern claims is oracle-confirmed, and the
          pattern covers the anchor's racy pairs (if any) *)
  | Diagnosis_miss
      (** the oracle found racy pairs at the diagnosis anchor that the
          top pattern does not cover *)
  | Diagnosis_spurious
      (** the top pattern claims a pair the oracle proves enforced or
          never-conflicting *)
  | Oracle_only
      (** the pipeline produced no top pattern at all, but the oracle
          found races in the failing execution *)

val classification_name : classification -> string

type pair_check = {
  a_iid : int;
  b_iid : int;
  verdict : Analysis.Hb.verdict;
}
(** One claimed pair of the top pattern with the oracle's judgement. *)

type bug_result = {
  bug_id : string;
  bug_kind : string;
  classification : classification;
  oracle_races : int;  (** racy static pairs in the failing execution *)
  oracle_events : int;  (** observation events consumed *)
  anchor_iid : int;
  top_pattern : string option;  (** [Patterns.id] of the top scorer *)
  checked : pair_check list;  (** claimed pairs, in pattern order *)
  spurious : (int * int) list;  (** claimed pairs the oracle rejects *)
  missed : Analysis.Hb.race list;  (** uncovered anchor races *)
  extra_races : int;  (** racy pairs unrelated to the diagnosis *)
  decoder_mismatches : int;
      (** reports whose trace processing differed between the production
          cursor decoder and the frozen v1 reference — must be 0: the two
          engines are bit-identical by contract *)
  notes : string list;
}

val check_bug :
  ?jobs:int -> ?cache:Pt.Decode_cache.t -> Corpus.Bug.t ->
  (bug_result, string) result
(** Full differential check of one bug: reproduce (via
    {!Corpus.Runner.collect}), diagnose, oracle-replay, classify.
    [Error _] when the bug cannot be reproduced.  Emits [oracle/races],
    [oracle/agree] and [oracle/diverge] counters into the ambient
    {!Obs.Scope} when one is enabled. *)

val check_all :
  ?jobs:int ->
  ?sweep_jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  Corpus.Bug.t list ->
  (string * (bug_result, string) result) list
(** [check_bug] over a bug list, tagged by bug id, in input order, one
    bug per {!Obs.Scope.sweep} lane of width [sweep_jobs] (default 1 =
    the sequential loop).  [jobs] sets nested decode width on the
    sequential path only; parallel lanes always decode sequentially.  The
    result list is the same at any width. *)

val diverged : bug_result -> bool
(** True for [Diagnosis_miss], [Diagnosis_spurious] and [Oracle_only]. *)

val to_json : (string * (bug_result, string) result) list -> Obs.Json.t
(** The [BENCH_oracle.json] document: per-bug classification, counters
    and pair verdicts, plus an aggregate summary block. *)
