(** The seeded traffic generator: a simulated production fleet whose
    endpoints hit corpus bugs on diurnal/bursty load curves, with
    optional endpoint churn (join/leave/crash) and an optional
    {!Chaos.Fault} class injected into every shipment.

    Each scenario is reproduced {e once} at stream start (the expensive
    simulator runs, in endpoint 0's seed range); every incident then
    replays that baseline through the one endpoint model,
    {!Fleet.Endpoint.ship}, with the shipping endpoint's identity and
    seed range — the same replay the chaos harness uses, which is what
    makes hundreds of endpoints over thousands of ticks affordable.
    Everything is a pure function of [seed]. *)

type t

type batch = {
  tick : int;
  packets : bytes list;  (** encoded wire packets, in arrival order *)
  offered : int;  (** [List.length packets] *)
  incidents : int;  (** endpoints that shipped this tick *)
  load : float;  (** per-endpoint incident probability used this tick *)
  burst : bool;  (** whether a burst multiplier fired *)
  joins : int;
  leaves : int;
  crashes : int;
}

val diurnal_period : int
(** Ticks per simulated "day" (24). *)

type baseline = Fleet.Endpoint.baseline
(** One bug's reproduction, replayed by every incident of its scenario. *)

val prepare :
  ?config:Pt.Config.t -> ?jobs:int -> Corpus.Bug.t list -> baseline list
(** Reproduce each bug once with {!Fleet.Endpoint.reproduce} as
    endpoint 0 (the expensive simulator runs), one bug per
    {!Obs.Scope.sweep} lane of width [jobs] (default
    {!Snorlax_util.Pool.default_jobs}).  Results keep input order and
    bugs that fail to reproduce are dropped with a
    [stream/baseline_failed] warning, so the output is the same at any
    width.  Prepared baselines
    can feed several {!create} calls — e.g. a 1-domain and a 4-domain
    run of the same scenario sharing one reproduction. *)

val create :
  seed:int ->
  endpoints:int ->
  ?churn:bool ->
  ?fault:Chaos.Fault.cls ->
  ?config:Pt.Config.t ->
  ?baselines:baseline list ->
  Corpus.Bug.t list ->
  t
(** Reproduce each bug once and spin up [endpoints] endpoints, assigned
    to scenarios round-robin.  Raises [Invalid_argument] when
    [endpoints < 1] or no bug reproduces.  [churn] enables per-tick
    join/leave/crash events; [fault] applies one chaos class to every
    report (content faults) and every tick's arrival stream (wire
    faults).  A crashing endpoint ships a truncated prefix of its
    incident — the [Endpoint_death] semantics — whether the crash came
    from churn or from the fault class.  [baselines] (from {!prepare})
    skips the reproduction step; [bugs] and [config] are then ignored —
    each baseline carries the tracer config it was reproduced under. *)

val tick : t -> batch
(** Advance one tick: decide churn, let each alive endpoint ship an
    incident with the current load probability, interleave shipments
    round-robin ({!Fleet.Endpoint.interleave}), apply wire faults. *)

val alive : t -> int
(** Currently alive endpoints. *)

val faults : t -> int
(** Cumulative fault-injection events (0 when [fault] is [None]). *)
