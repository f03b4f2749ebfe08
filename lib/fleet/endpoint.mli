(** The endpoint model: how a simulated user endpoint turns a reproduced
    corpus scenario into the wire packets it ships (Figure 2, steps 6–7).
    Every fleet path builds its packets here — the batch fleet
    ({!run}), the streaming traffic generator and the chaos injector —
    so the envelope, the seed scheme, failing-first order, the
    endpoint-death prefix cut and round-robin arrival exist once.  The
    bytes this module returns are exactly what would cross the network. *)

type baseline = {
  bug : Corpus.Bug.t;
  origin : int;  (** the endpoint whose seed range reproduced it *)
  config : Pt.Config.t;  (** tracer parameters the rings were produced under *)
  runs : int;  (** executions the reproduction needed *)
  failing :
    (Snorlax_core.Report.failing_report * int * Corpus.Runner.sync_profile)
    list;  (** (report, seed, sync profile), in collection order *)
  success :
    (Snorlax_core.Report.success_report * int * Corpus.Runner.sync_profile)
    list;
}
(** One reproduction of a scenario, reduced to what an endpoint ships:
    the {!Corpus.Runner.collected} reports with their seeds and sync
    profiles, without the endpoint's build of the scenario binary (a
    long-lived baseline must not pin it). *)

val seed_stride : int
(** Seed-space distance between endpoints; larger than the runner's
    default retry budget so endpoint schedules never overlap. *)

val reproduce :
  config:Pt.Config.t ->
  endpoint:int ->
  Corpus.Bug.t ->
  (baseline, string) result
(** A plain {!Corpus.Runner.collect} in endpoint [endpoint]'s seed range
    ([seed_base = 1 + endpoint * seed_stride]): one failing report and
    the paper's 10 successes per failing one. *)

type kind = F | S
(** What a packet carries — tracked alongside the encoded bytes so
    ordering faults and accounting can tell report kinds apart without
    re-decoding. *)

type damage = {
  on_failing :
    Snorlax_core.Report.failing_report -> Snorlax_core.Report.failing_report;
  on_success :
    Snorlax_core.Report.success_report -> Snorlax_core.Report.success_report;
}
(** Per-report content mutation applied before encoding (chaos faults). *)

val no_damage : damage

val ship :
  endpoint:int ->
  incident:int ->
  damage:damage ->
  baseline ->
  (kind * bytes) list
(** Endpoint [endpoint]'s [incident]-th shipment of a baseline: every
    report enveloped with the endpoint's identity, the baseline's tracer
    config and the report's real provenance, then encoded — failing
    reports first, the order an endpoint ships them in.  Each seed is
    the report's own plus [(endpoint - origin) * seed_stride + incident],
    so the endpoint that reproduced the baseline ships its seeds
    unchanged at incident 0 and replays land in the shipping endpoint's
    seed range.  [damage] runs on every success report, then on every
    failing one. *)

val crash : Snorlax_util.Prng.t -> 'a list -> 'a list * int
(** An endpoint dying mid-shipment: it sends a uniform random strict
    prefix of its shipment (at least one packet is lost when there are
    any).  Returns the prefix and how many packets were lost; draws
    nothing from the generator for an empty shipment. *)

val interleave : 'a list list -> 'a list
(** Round-robin arrival of concurrent shipments: one packet from each
    non-empty shipment in turn.  Preserves every shipment's internal
    order and the multiset of packets. *)

type shipment = {
  endpoint : int;
  packets : bytes list;
      (** encoded {!Wire.envelope}s, failing reports first — the order
          the driver would ship them in *)
  runs : int;  (** executions this endpoint performed *)
  reproduced : bool;  (** false when the bug never manifested here *)
}

val run :
  bug:Corpus.Bug.t -> endpoint:int -> ?config:Pt.Config.t -> unit -> shipment
(** Simulate one batch-fleet endpoint: {!reproduce} in its own seed
    range under its flight recorder, then {!ship} the reproduction as
    incident 0.  A shipment with [reproduced = false] carries no
    packets: an endpoint that never failed has nothing to report (its
    successes were never requested by a watchpoint). *)
