(** Steps 2 and 3 of Lazy Diagnosis (Figure 2): decode every thread's
    snapshot, derive (a) the set of instructions that executed at all —
    the scope for the hybrid points-to analysis — and (b) the dynamic
    instruction trace, partially ordered by the coarse timing intervals. *)

type event = {
  tid : int;
  seq : int;  (** position in the thread's decoded sequence (program order) *)
  iid : int;
  pc : int;
  t_lo : int;
  t_hi : int option;
      (** [None] is the decoder's open upper bound: the trace ended before
          a later clock reading, so the event is unordered against later
          events on other threads *)
}

module Iset : Set.S with type elt = int

type t = {
  executed : Iset.t;  (** step 2: executed static instructions *)
  events : event array;  (** step 3: all decoded events, grouped by thread *)
  events_by_iid : (int, event array) Hashtbl.t;
      (** dynamic instances per static instruction, in per-thread order —
          flat slices into the same decode, built once, never rebuilt *)
  lost_bytes : int;
  desynced_tids : int list;
}

val process :
  Lir.Irmod.t ->
  config:Pt.Config.t ->
  ?fail_tails:(int * int * int) list ->
  ?jobs:int ->
  ?cache:Pt.Decode_cache.t ->
  (int * bytes) list ->
  t
(** [?fail_tails] is a list of [(tid, stop_pc, t_hi)]: each named thread's
    replay is extended past its last packet to [stop_pc] (the failing or
    blocked instruction, whose time is known from the failure report).
    Deadlocks pass one entry per blocked thread.

    Each [(tid, snapshot)] decode is independent (per-thread PT rings).
    Decodes are memoized through [?cache] (default
    {!Pt.Decode_cache.shared}; a zero-capacity cache disables
    memoization).  The cache misses run largest snapshot first, one per
    lane, through [Obs.Scope.map_lanes] on
    {!Snorlax_util.Pool.lanes}[ ~jobs misses] lanes; [?jobs] defaults to
    {!Snorlax_util.Pool.default_jobs}, and width 1 decodes on the caller
    with the ambient telemetry.  Decoded rings enter the cache on the
    caller, in input order, so the output, the cache state and the pt/*
    telemetry are identical at every width. *)

val executes_before : event -> event -> bool
(** The partial order of §4.1: true when the coarse intervals are disjoint
    in the right direction, or when both events belong to the same thread
    and follow its (total) program order. *)

val instances : t -> iid:int -> event list
(** Dynamic instances of one static instruction (possibly empty).
    Allocates a fresh list per call; prefer {!instances_arr} on hot
    paths. *)

val instances_arr : t -> iid:int -> event array
(** Zero-copy view of the same instances; treat as read-only. *)
