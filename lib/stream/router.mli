(** The tracker of the MogileFS-style tracker/worker split: a thin,
    stateless-per-packet front tier that decodes only the envelope,
    computes the crash {!Fleet.Signature}, and hashes it to the owning
    {!Shard} — so every report of one bucket lands on one worker and
    shards never coordinate.

    Success reports carry no signature; the tracker routes them by the
    collector's own rule, {!Fleet.Routes}, with shard indices as targets:
    trigger pc against the routes failing reports establish, and a
    bounded drop-oldest pool for successes that beat their failure.

    The signature computation decodes the failing ring — the same decode
    the owning shard's collector performs again; both go through the
    shared {!Pt.Decode_cache}, so the second is a memo hit. *)

type t

val create :
  ?offer:(int -> arrival:float -> bytes -> unit) ->
  Shard.t array ->
  (string, Corpus.Bug.built) Hashtbl.t ->
  t
(** The modules table must be the one the shards share; the held-success
    pool per bug is capped by the first shard's collector policy
    ([max_pending]).  [offer] overrides how a routed packet reaches
    shard [idx] (default: direct {!Shard.offer}) — {!Stream.Deploy}
    passes {!Service.offer}, and benchmarks wrap it to time each report.
    Raises [Invalid_argument] on an empty shard array. *)

val route : t -> bytes -> unit
(** Route one packet, stamping its arrival time.  Total: the tracker
    only ever holds successes a later route may claim, and forwards the
    rest so the shard's collector counts every error.  Malformed packets
    are hashed on raw bytes; failing reports it cannot sign and
    successes of an unknown bug id (no route can ever appear) are hashed
    on the bug id. *)

val received : t -> int

val malformed : t -> int
(** Packets whose envelope did not decode at the tracker (still
    forwarded). *)

val pending_held : t -> int
(** Successes currently held for a route. *)

val pending_dropped : t -> int
(** Held successes evicted by the drop-oldest pool cap. *)
