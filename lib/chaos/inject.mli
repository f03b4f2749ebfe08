(** Turn one reproduced bug into a faulty fleet packet stream.

    The harness reproduces each corpus bug once in the lab (endpoint 0's
    seed range, no faults).  [endpoints] endpoints then each ship that
    reproduction as their own incident through the one endpoint model,
    {!Fleet.Endpoint.ship}: their own identity and seed range, the
    baseline's real provenance, failing reports first.  Exactly one
    {!Fault.cls} is injected into the replay.  Ring and clock faults
    mutate report content before encoding; endpoint death cuts one
    shipment short; wire faults mutate the arrival stream; ordering
    faults permute it.  Everything is a pure function of the given
    generator, so one seed reproduces one trial. *)

type stream = {
  packets : bytes list;  (** arrival order at the collector *)
  faults : int;  (** mutation events performed (0 when nothing fired) *)
  packets_sent : int;  (** [List.length packets] *)
  failing_sent : int;
      (** failing-report packets present in [packets], duplicates
          included — the graceful-degradation invariant keys off whether
          any failing report survived the faults *)
}

(** The three fault layers, exposed separately so other packet sources
    (the streaming fleet's traffic generator) can inject the same fault
    classes without re-deriving the probabilities.  All of them count
    each mutation event into [faults] and are pure functions of the
    given generator. *)

val skew_offset : Snorlax_util.Prng.t -> faults:int ref -> Fault.cls -> int
(** A per-endpoint clock offset in ns, nonzero only for [Clock_skew]
    (uniform in ±1ms). *)

val damage :
  Fault.cls ->
  Snorlax_util.Prng.t ->
  faults:int ref ->
  skew:int ->
  Fleet.Endpoint.damage
(** Ring faults (truncate/overwrite, each ring hit with p=1/2) and the
    clock skew, applied to one endpoint's report content.  Skew clamps
    shifted timestamps at 0 (the wire format carries unsigned times). *)

val wire_faults :
  Fault.cls ->
  Snorlax_util.Prng.t ->
  faults:int ref ->
  (Fleet.Endpoint.kind * bytes) list ->
  (Fleet.Endpoint.kind * bytes) list
(** Apply wire-level faults (drop/duplicate/bitflip each packet with
    p=0.3, full-stream reorder, success-before-failure partition) to an
    arrival stream.  Ring, death and skew classes pass through. *)

val build :
  prng:Snorlax_util.Prng.t ->
  cls:Fault.cls ->
  endpoints:int ->
  Fleet.Endpoint.baseline ->
  stream
(** Requires [endpoints >= 1].  Endpoint [e] ships the baseline as its
    incident 0; under [Endpoint_death] one endpoint's shipment is cut
    to a strict prefix ({!Fleet.Endpoint.crash}); shipments are
    interleaved round-robin to simulate concurrent arrival, then the
    wire faults are applied. *)
