(** Step 6 of Lazy Diagnosis: combine the type-ranked candidate
    instructions with the partially ordered dynamic trace (partial flow
    sensitivity, Figure 5) into candidate concurrency-bug patterns
    (Figure 6): order violations (the remote access executes before the
    failing one), single-variable atomicity violations (a remote access
    lands between two local accesses — the four unserializable shapes of
    Lu et al.), and deadlock cycles (crossed lock acquisitions). *)

type order_shape = WR | RW | WW

type atomicity_shape = RWR | WWR | RWW | WRW

type t =
  | Order of { remote_iid : int; anchor_iid : int; shape : order_shape }
  | Atomicity of {
      local_iid : int;
      remote_iid : int;
      anchor_iid : int;
      shape : atomicity_shape;
      guard_writes : int list;
          (** other candidate writes to the location; the remote write only
              counts when none of these lands between it and the anchor —
              i.e. the anchor really observed the remote write's value *)
    }
  | Deadlock_cycle of { sides : (int * int) list }
      (** per thread in cycle order: (lock call it holds, lock call it
          attempts); hold_i aliases attempt_(i-1) *)

val id : t -> string
(** Stable identity for de-duplication and cross-run statistics. *)

val ordered_iids : t -> int list
(** The target instructions in diagnosed execution order, comparable to a
    bug's ground truth for the A_O metric. *)

val claimed_pairs : t -> (int * int) list
(** The instruction pairs a pattern claims can interleave the wrong way,
    which a happens-before check of the diagnosis (the oracle) or of a
    patch (fix validation) looks up.  An order violation claims
    (remote, anchor); an atomicity violation claims the remote lands
    between the two local accesses, so both (local, remote) and
    (remote, anchor) can flip.  A deadlock cycle claims lock-order facts,
    not access pairs: [[]]. *)

val norm_pair : int * int -> int * int
(** A pair with the smaller iid first, so pairs compare regardless of
    which side a race report or a claim names first. *)

val describe : Lir.Irmod.t -> t -> string

val kind_rank : t -> int
(** The simpler-explanation order of pattern kinds: order violation (0),
    deadlock cycle (1), atomicity violation (2).  {!generate}'s output
    and {!Statistics.rank}'s equal-F1 ties both follow it. *)

val generate :
  Lir.Irmod.t ->
  points_to:Analysis.Pointsto.t ->
  tp:Trace_processing.t ->
  info:Report.failure_info ->
  failing_tid:int ->
  candidates:Type_ranking.candidate list ->
  t list
(** Patterns consistent with the failing trace, in canonical order:
    {!kind_rank}, then target iids, then {!id}.  [anchor_iid] inside
    [info] must refer to a memory access (the caller resolves assert-style
    failures to their feeding access first). *)

val present_in :
  Lir.Irmod.t -> points_to:Analysis.Pointsto.t -> t -> Trace_processing.t -> bool
(** Whether an execution (failing or successful) exhibits the pattern. *)
