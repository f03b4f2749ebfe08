(** The in-process diagnosis server's front door (Figure 2, steps 7–8 at
    fleet scale): receives wire packets from every endpoint, buckets
    failing reports by crash {!Signature}, applies a per-bucket sampling
    policy so a bug hit by the whole fleet cannot flood the server, and
    routes watchpoint-triggered success reports to the bucket whose
    failure location they were collected at, by the {!Routes} rule the
    streaming tracker applies too.

    All counters (received, kept, dropped, decode errors) flow through
    {!Obs.Scope} when a telemetry scope is enabled. *)

type policy = {
  max_failing : int;  (** failing reports kept per bucket (first come) *)
  max_success : int;  (** successful reports kept per bucket *)
  max_pending : int;
      (** success reports held per bug while no bucket claims them; on
          overflow the oldest held entry is evicted (counted in
          {!totals.pending_dropped}) *)
}

val default_policy : policy
(** 4 failing + 40 successful — the paper's 10x successful-trace cap,
    applied per bucket instead of per client — and 64 pending. *)

type prov_sample = {
  s_feats : (string * string) list;
      (** categorical features: endpoint, ring_kb, timing, sync_tail,
          sync_ops_log2 — mined by exact-value coverage *)
  s_nums : (string * int) list;
      (** numeric features: sync_ops, runs — mined by threshold split;
          empty for envelopes that carry no provenance *)
}
(** One report's provenance feature vector, kept per *seen* report (up
    to a cap) even when the report's payload is sampled away — feature
    statistics improve with fleet volume, the Lumos observation. *)

type bucket = {
  signature : Signature.t;
  config : Pt.Config.t;
      (** tracer parameters of the bucket's first failing report; the
          bucket's diagnosis decodes every trace under these *)
  mutable endpoints : int list;  (** distinct endpoints, newest first *)
  mutable failing_rev : Snorlax_core.Report.failing_report list;
      (** kept reports, newest first (ingest conses); read through
          {!failing} for arrival order *)
  mutable successful_rev : Snorlax_core.Report.success_report list;
  mutable failing_seen : int;  (** including dropped *)
  mutable success_seen : int;
  mutable wire_bytes : int;  (** encoded size of every packet routed here *)
  mutable failing_prov_rev : prov_sample list;  (** newest first, capped *)
  mutable success_prov_rev : prov_sample list;
}

val failing : bucket -> Snorlax_core.Report.failing_report list
(** Kept failing reports in arrival order. *)

val successful : bucket -> Snorlax_core.Report.success_report list
(** Kept success reports in arrival order. *)

val failing_kept : bucket -> int
val success_kept : bucket -> int
val failing_dropped : bucket -> int
val success_dropped : bucket -> int

(** {2 Provenance mining}

    Which provenance features discriminate the bucket's failing reports
    from its successful ones — the Lumos-style qualifier ("fails only on
    endpoints where X") printed next to the bucket table. *)

type qualifier = {
  q_desc : string;  (** e.g. ["sync_ops<47"] or ["sync_tail=1a2b3c4d"] *)
  q_fail_frac : float;  (** fraction of failing reports the feature covers *)
  q_succ_frac : float;  (** fraction of successful reports it covers *)
}

val qualifiers : bucket -> qualifier list
(** At most 3, strongest discrimination first.  A qualifier needs
    >= 75% failing coverage, <= 25% successful coverage and at least 2
    provenance samples on each side — a single failing report would make
    every feature a trivial (and meaningless) discriminator. *)

val qualifier_to_string : qualifier -> string
(** ["sync_ops<47 (100% of failing vs 9% of successful)"]. *)

type totals = {
  received : int;  (** packets ingested, well-formed or not *)
  wire_bytes : int;
  decode_errors : int;  (** malformed packets (bad bytes, unknown bug id) *)
  failing_received : int;
  success_received : int;
  unrouted : int;
      (** success reports no bucket claimed — their failure was never
          reported, or their trigger pc matches no bucket's watch set *)
  pending_dropped : int;
      (** held successes evicted when a bug's pending pool overflowed
          [policy.max_pending] *)
}

type t

val create :
  ?policy:policy -> ?modules:(string, Corpus.Bug.built) Hashtbl.t -> unit -> t
(** Raises [Invalid_argument] when [policy.max_pending < 0]; 0 holds no
    early success.  [modules] shares one server-build cache across
    collectors — harnesses that create many short-lived collectors for
    the same bugs (e.g. chaos trials) would otherwise rebuild every
    scenario binary per trial. *)

val policy : t -> policy

val ingest : t -> bytes -> (unit, string) result
(** Decode one wire packet and route it.  [Error] on malformed input or
    an unknown bug id (both also counted in {!totals}); never raises.
    A success report arriving before any failing report of its bug is
    held back and routed when a matching bucket appears. *)

val buckets : t -> bucket list
(** In creation order. *)

val pending_pools : t -> (string * int) list
(** (bug id, held count) for every non-empty pending pool, in no
    particular order — each count is at most [policy.max_pending]. *)

val totals : t -> totals
(** [unrouted] counts the still-pending successes, so call it after the
    fleet has drained. *)

val built : t -> bucket -> Corpus.Bug.built
(** The server's own build of the bucket's scenario binary (laid out);
    deterministic construction is what lets iids in endpoint reports
    resolve against it. *)

type verdict = {
  top_pattern : string option;
      (** {!Snorlax_core.Patterns.id} of the top scorer *)
  top_describe : string option;  (** its human description *)
  f1 : float;  (** 0 when no pattern scored *)
  root_cause_match : bool;
  ordering_accuracy : float;  (** A_O; 0 when no pattern scored *)
}

val verdict : t -> bucket -> Snorlax_core.Statistics.scored option -> verdict
(** A bucket's top scorer judged against the ground truth of {!built} —
    the one scoring every fleet path (batch, streaming, chaos) reports
    per bucket. *)

val diagnose : t -> bucket -> Snorlax_core.Diagnosis.result
(** Run the full server pipeline over the bucket's kept reports — the
    cross-endpoint statistical diagnosis. *)
