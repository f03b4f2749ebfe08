(** The front door's success-routing rule (Figure 2's server step),
    written once for both tiers that apply it: the batch {!Collector}
    routes to buckets, the streaming tracker to shard indices.

    A failing report's signature key names a target, and the key's first
    report gives its bug a route from the watchpoint set its endpoints
    collect successes at to that target.  A success goes to the oldest
    route of its bug whose watch pcs hold its trigger pc, as the
    endpoint driver arms one watchpoint set per failure location.  A
    success no route claims yet waits in a per-bug pool that evicts its
    oldest entry on overflow; a new route releases the ones it claims
    oldest first, so kept-first-K sampling and FIFO shard queues see the
    fleet's arrival order.  All lists here are oldest first. *)

val server_build :
  (string, Corpus.Bug.built) Hashtbl.t ->
  string ->
  (Corpus.Bug.built, string) result
(** The server's laid-out build of a bug's scenario binary, built into
    the shared table on first use.  [Error] for an unknown bug id. *)

type failing = {
  signature : Signature.t;
  key : string;  (** {!Signature.key} of [signature] *)
  watch_pcs : int list Lazy.t;
      (** failing pc + predecessor-block entries; forced only by a new
          route *)
}

val of_failing :
  (string, Corpus.Bug.built) Hashtbl.t ->
  config:Pt.Config.t ->
  bug_id:string ->
  Snorlax_core.Report.failing_report ->
  (failing, string) result
(** [Error] for an unknown bug id or a report the server build cannot
    resolve (corrupt or mismatched). *)

type ('target, 'item) t

val create : max_pending:int -> name:string -> ('target, 'item) t
(** [max_pending] caps each bug's pool (0 holds nothing); an eviction
    counts [name ^ "_dropped"] and logs [name ^ "_evict"].  Raises
    [Invalid_argument] when [max_pending < 0]. *)

val claim :
  ('target, 'item) t ->
  failing ->
  fresh:(unit -> 'target) ->
  'target * ('target * 'item) list
(** The target of the report's key, made by [fresh] when the key is new.
    A new key also adds the bug's newest route and returns the held
    items it claims, with their targets, out of the pool. *)

val route :
  ('target, 'item) t -> bug_id:string -> pc:int -> 'item -> 'target option
(** The target of the oldest route claiming [pc]; [None] means the item
    is now held. *)

val held : ('target, 'item) t -> int

val dropped : ('target, 'item) t -> int
(** Held items evicted by the cap. *)

val pools : ('target, 'item) t -> (string * int) list
(** (bug id, held count) for every non-empty pool, in no particular
    order. *)
