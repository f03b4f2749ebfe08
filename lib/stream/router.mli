(** The tracker of the MogileFS-style tracker/worker split: a thin,
    stateless-per-packet front tier that decodes only the envelope,
    computes the crash {!Fleet.Signature}, and hashes it to the owning
    {!Shard} — so every report of one bucket lands on one worker and
    shards never coordinate.

    Success reports carry no signature; the tracker routes them by
    trigger pc against the watch-pc routes that failing reports
    establish (oldest route wins, mirroring the collector).  A success
    that beats its failure to the tracker is held in a bounded
    drop-oldest pool and re-offered when the route appears.

    The signature computation decodes the failing ring — the same decode
    the owning shard's collector performs again; both go through the
    shared {!Pt.Decode_cache}, so the second is a memo hit. *)

type t

val create :
  ?pending_cap:int ->
  ?offer:(int -> arrival:float -> bytes -> unit) ->
  Shard.t array ->
  (string, Corpus.Bug.built) Hashtbl.t ->
  t
(** [pending_cap] (default 64) bounds the held-success pool per bug.
    The modules table must be the one the shards share.  [offer]
    overrides how a routed packet reaches shard [idx] (default: direct
    {!Shard.offer}) — {!Stream.Deploy} passes {!Service.offer}, and
    benchmarks wrap it to time each report.  Raises [Invalid_argument] on
    an empty shard array or negative cap. *)

val route : t -> bytes -> unit
(** Route one packet, stamping its arrival time.  Total: malformed
    packets are hashed to a shard on raw bytes and forwarded — the
    shard's collector is the single source of truth for decode-error
    accounting, the tracker never swallows a packet (it only ever holds
    routable-later successes). *)

val received : t -> int

val malformed : t -> int
(** Packets whose envelope did not decode at the tracker (still
    forwarded). *)

val pending_held : t -> int
(** Successes currently held for a route. *)

val pending_dropped : t -> int
(** Held successes evicted by the drop-oldest pool cap. *)

val shard_count : t -> int
