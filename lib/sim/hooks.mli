(** Observation points the simulator exposes.

    [on_control] sees exactly what a hardware control-flow tracer sees —
    thread starts/exits, conditional-branch outcomes, and return targets —
    and returns the virtual-time cost (ns) the observation adds, which is
    how the PT tracer's runtime overhead enters the simulation.

    [on_instr] fires before every executed instruction and returns the
    virtual-time cost (ns) its observation adds.  It models the
    clock_gettime instrumentation of §3.2 (cost ~0) and Gist-style
    software instrumentation of monitored accesses, whose per-event cost
    is exactly what Figure 9 charges against the baseline.  Snorlax's
    diagnosis never depends on it.  The driver's hardware watchpoint
    (trace snapshot at a pc, §5) is [watch], which costs no call until
    it fires. *)

type control_event =
  | Thread_start of { tid : int; entry_pc : int }
  | Cond_branch of { tid : int; pc : int; taken : bool }
  | Ret_branch of { tid : int; target_pc : int option }
      (** [None] when the thread's entry function returns *)
  | Thread_exit of { tid : int }

type sched_event =
  | Switch of { prev_tid : int option; next_tid : int; time : float }
      (** the engine picked a different thread than it last stepped *)
  | Contended of { tid : int; addr : int; time : float }
      (** a mutex_lock found the lock held and parked the thread *)
  | Unblocked of { tid : int; parked_ns : float; time : float }
      (** a blocked thread (mutex, condvar or join) became runnable again
          after [parked_ns] of virtual time *)

type access_kind = Read | Write | Free

(** Ground-truth observation stream for happens-before analysis.  Every
    event names the dynamic instruction ([iid]) it stems from, so a
    consumer can relate the stream back to static code.  Lock/condvar
    events carry the synchronization object's address; accesses carry the
    byte range they touch ([size] is the pointee size for loads/stores and
    the whole block extent for [free], which acts as a write to the
    entire allocation). *)
type obs_event =
  | Obs_access of
      { tid : int; iid : int; addr : int; size : int; kind : access_kind;
        time : float }
  | Obs_lock_attempt of { tid : int; iid : int; addr : int; time : float }
      (** fires before the outcome is known, including for attempts that
          block or close a deadlock cycle — this is what exposes
          hold-while-acquiring lock-order edges *)
  | Obs_lock_acquired of { tid : int; iid : int; addr : int; time : float }
  | Obs_lock_released of { tid : int; iid : int; addr : int; time : float }
      (** also fired by the release half of [cond_wait] *)
  | Obs_cond_park of
      { tid : int; iid : int; cond : int; mutex : int; time : float }
  | Obs_cond_wake of
      { waker_tid : int; woken_tid : int; cond : int; time : float }
      (** a signal/broadcast dequeued a waiter; the waiter's mutex
          re-acquisition follows as its own attempt/acquire pair *)
  | Obs_spawn of { parent_tid : int; child_tid : int; iid : int; time : float }
  | Obs_join of { tid : int; target_tid : int; iid : int; time : float }
      (** the join call returned: [target_tid] had finished *)

(** A hardware pc watchpoint (the debug-register breakpoint of §5).  The
    interpreter compares each instruction's pc against [pcs] inline and
    calls [on_hit] only when one matches, before [on_instr] and at the
    same virtual time, so an armed watchpoint costs no call per step and
    an empty one costs nothing.  [pcs] is read when a run starts: set it
    before {!Interp.run}, not from inside a callback.  A hit is pure
    observation and charges no virtual time. *)
type watch = {
  mutable pcs : int array;
  on_hit : tid:int -> time:float -> pc:int -> unit;
}

type t = {
  on_control : (time:float -> control_event -> float) option;
  on_instr : (tid:int -> time:float -> Lir.Instr.t -> float) option;
  gate : (tid:int -> time:float -> Lir.Instr.t -> float) option;
      (** Consulted before executing each instruction: a positive return
          value parks the thread for that many virtual nanoseconds and
          retries (the instruction does not execute yet).  This is the
          schedule-enforcement primitive behind the coarse record/replay
          of §3.3; debug-register stalls would be modelled the same way. *)
  on_sched : (sched_event -> unit) option;
      (** Pure observation of scheduler activity — context switches, lock
          contention, parked-thread time.  Unlike the other hooks it
          returns no cost: telemetry must never perturb the virtual
          timeline it measures. *)
  on_obs : (obs_event -> unit) option;
      (** Pure observation of memory accesses and synchronization, the
          feed for the {!Analysis.Hb} happens-before oracle.  Like
          [on_sched] it returns no cost, so attaching an observer cannot
          change the interleaving being observed — replaying a failing
          seed with an observer reproduces the identical execution. *)
  watch : watch list;
      (** Native pc watchpoints, checked in list order; a pc listed by
          two watches calls both.  [combine] concatenates the lists, and
          each watch keeps its own [pcs]. *)
}

val none : t

val combine : t -> t -> t
(** Run both hooks: control costs add up, instruction observers both fire,
    both sets of watchpoints stay armed.
    Used to stack the PT driver with experiment instrumentation. *)

val control_event_tid : control_event -> int
