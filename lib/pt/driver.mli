(** The client-side trace driver (the paper's 3773-LOC loadable kernel
    module, §5): owns the per-thread tracer, snapshots every ring buffer on
    demand (a failure) or when execution reaches a watched pc (the
    hardware-breakpoint path used to collect traces from successful
    executions at the previous failure location, step 8 of Figure 2). *)

type snapshot = {
  traces : (int * bytes) list;  (** (tid, surviving ring bytes) *)
  at_time_ns : float;
  trigger_pc : int option;  (** the watched pc that fired, if any *)
  trigger_tid : int option;  (** the thread that hit the watchpoint *)
}

type t

val create : ?config:Config.t -> unit -> t

val hooks : t -> Sim.Hooks.t
(** Plug into [Sim.Interp.config.hooks]. *)

val set_watchpoints : t -> pcs:int list -> unit
(** Snapshot whenever any of [pcs] executes, keeping the latest hit (the
    longest history).  The head of [pcs] is the failure pc itself and
    takes precedence; the rest are the paper's predecessor-block
    fallbacks, used only while the primary has never fired.  The pcs arm
    the {!hooks}' native watchpoint ({!Sim.Hooks.watch}): set them before
    the run starts. *)

val watch_snapshot : t -> snapshot option
(** The snapshot captured by the watchpoint, if it fired. *)

val snapshot_now : t -> at_time_ns:float -> snapshot
(** Dump all buffers immediately (the failure path). *)

val tracer : t -> Tracer.t
