(** Ground-truth happens-before oracle: a vector-clock race detector over
    an observed execution, independent of the trace-processing → points-to
    → patterns → statistics pipeline it cross-checks.

    The engine consumes a linearized event stream (the simulator's
    {!Sim.Hooks} observation hook produces one, but the type here is
    sim-agnostic) and maintains TWO happens-before relations at once:

    - the {e full} relation, with every edge kind — program order, thread
      create/join, condvar signal→wake, and mutex release→acquire;
    - the {e enforced} relation, which drops the lock edges.

    The distinction is what classification needs: fork/join/cond/program
    order hold in {e every} execution of the program, while a
    release→acquire edge merely reflects the order the locks happened to
    be granted in this run — the opposite order is equally possible.  So a
    conflicting pair ordered only by lock edges is still a pair that can
    execute in either order (the bug-pattern sense of "racy"), whereas a
    pair ordered by enforced edges cannot flip, and a diagnosis that
    claims it can is wrong. *)

module Vc : sig
  (** Dense integer vector clocks (thread id → logical time). *)

  type t

  val empty : t
  val get : t -> int -> int
  (** 0 for components never set. *)

  val tick : int -> t -> t
  (** Increment one component. *)

  val join : t -> t -> t
  (** Pointwise maximum. *)

  val leq : t -> t -> bool
  (** Pointwise ≤ (the happens-before partial order on clocks). *)
end

type access_kind = Read | Write

type event =
  | Access of
      { tid : int; iid : int; addr : int; size : int; kind : access_kind }
      (** a load/store touching [size] bytes at [addr] *)
  | Free of { tid : int; iid : int; addr : int; size : int }
      (** deallocation: a write to the whole [size]-byte block *)
  | Lock_attempt of { tid : int; iid : int; lock : int }
      (** fires whether or not the lock is granted; while other locks are
          held it contributes hold-while-acquiring lock-order edges *)
  | Acquire of { tid : int; iid : int; lock : int }
  | Release of { tid : int; iid : int; lock : int }
  | Fork of { parent : int; child : int; iid : int }
  | Join of { tid : int; target : int; iid : int }
  | Cond_wake of { waker : int; woken : int; cond : int }
      (** a signal/broadcast handed the wakeup to a parked waiter *)

type t

val create : unit -> t

val feed : t -> event -> unit
(** Consume the next event.  Events must arrive in a linearization
    consistent with the execution (the simulator hook order is one).
    Tids and iids are dense non-negative ids, as the simulator assigns
    them: clocks are indexed by tid and access kinds by iid, and an
    access iid of [2{^31}] or more raises [Invalid_argument]. *)

type ordering =
  | Racy  (** no happens-before path at all: a data race *)
  | Lock_ordered
      (** ordered, but only through mutex release→acquire edges — the
          orders can flip between runs, so the pair is a true bug-pattern
          candidate even though this run had no simultaneous access *)
  | Enforced
      (** ordered by program order / fork / join / cond edges that hold in
          every execution: the pair can never execute in the other order *)

type race = {
  a_iid : int;
  b_iid : int;
  a_kind : access_kind;
  b_kind : access_kind;
}
(** A conflicting static pair ([a_iid < b_iid], or [a_iid = b_iid] when
    one instruction races with itself across threads) observed with no
    ordering path. *)

type verdict =
  | No_conflict
      (** the two instructions never touched overlapping memory from
          different dynamic instances, or never conflicted (both reads) *)
  | Conflict of { ordering : ordering; path : string list }
      (** [path] walks the happens-before chain that orders the weakest
          observed instance pair (empty for [Racy] — that is the point:
          no path exists) *)

val pair_verdict : t -> int -> int -> verdict
(** Judgement for a static instruction pair, aggregated over every
    conflicting dynamic instance pair: the weakest ordering observed wins
    ([Racy] < [Lock_ordered] < [Enforced]). *)

val races : t -> race list
(** All racy pairs, sorted by (a_iid, b_iid); duplicate-free. *)

val lock_edges : t -> (int * int * int * int * int) list
(** Hold-while-acquiring facts [(tid, held_lock, held_iid, wanted_lock,
    wanted_iid)]: the thread attempted [wanted_lock] (at [wanted_iid])
    while holding [held_lock] (acquired at [held_iid]).  Chains of these
    with distinct threads and matching addresses witness deadlock
    cycles. *)

val event_count : t -> int
val race_count : t -> int
