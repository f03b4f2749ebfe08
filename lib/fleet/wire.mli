(** The fleet wire format: what an endpoint actually puts on the network
    when it ships a failure (or watchpoint-triggered success) report to
    the diagnosis server.

    One encoded packet is a version byte followed by a varint-packed
    envelope: endpoint id, reproduction seed, bug id, the tracer
    configuration the rings were produced under (so the server decodes
    each endpoint's traces with the right timing parameters), and the
    report payload itself — including every per-thread ring snapshot as
    raw bytes.  Everything length-delimited, no padding: a pbzip2 failing
    report is a few hundred bytes on the wire.

    [decode] is total: truncated buffers, bad version bytes, unknown
    tags and trailing garbage all return [Error], never raise — corrupt
    network input must not take the collector down. *)

type payload =
  | Failing of Snorlax_core.Report.failing_report
  | Success of Snorlax_core.Report.success_report

type provenance = {
  runs : int;
      (** executions the endpoint performed before shipping this report *)
  sync_ops : int;
      (** synchronization operations observed in the reported run *)
  sync_digest : int;
      (** Lumos-style qualifier material: a digest of the run's recent
          sync-op history (kind, tid, static iid of the last operations
          before the report fired), non-negative *)
}
(** Provenance tags: causal metadata about the reported run
    that the collector mines for features discriminating failing from
    successful reports.  Endpoint id and tracer config knobs already
    travel in the envelope proper. *)

type envelope = {
  endpoint : int;  (** which simulated client produced this *)
  seed : int;  (** the scheduler seed of the reported execution *)
  bug_id : string;  (** which corpus scenario the endpoint was running *)
  config : Pt.Config.t;
      (** ring/timing parameters of the endpoint's tracer; the decode side
          reconstructs the cost model as {!Pt.Config.default_costs} (costs
          only matter client-side and are not shipped) *)
  prov : provenance option;
      (** [None] when the endpoint attached no provenance; such a report
          still routes but adds no provenance sample *)
  payload : payload;
}

val version : int
(** Current format version (2); the first byte of every packet. *)

val encode : envelope -> bytes

val decode : bytes -> (envelope, string) result
(** Round-trips [encode].  [Error] (with a reason) on any malformed
    input, including any version byte but {!version}.  A packet with
    bytes beyond the envelope is malformed. *)
