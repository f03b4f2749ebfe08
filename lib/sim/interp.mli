(** Discrete-event interpreter for LIR modules.

    Every thread runs on its own virtual core with a local clock; the
    engine always steps the runnable thread with the smallest clock, which
    yields a genuinely parallel interleaving under a single global
    time base — the simulator analogue of the invariant TSC the paper's
    measurements depend on (§3.2).  Per-instruction costs carry seeded
    jitter so repeated runs interleave differently while staying
    reproducible from the seed. *)

type outcome =
  | Completed
  | Failed of { failure : Failure.t; time_ns : float }
  | Stuck
      (** threads blocked with no failure recorded (e.g. a join cycle) *)
  | Fuel_exhausted

type run_result = {
  outcome : outcome;
  final_time_ns : float;  (** max thread clock = virtual wall-clock time *)
  steps : int;  (** instructions executed across all threads *)
  output : int list;  (** print_i64 values, in emission order *)
  threads_spawned : int;
}

type config = {
  seed : int;
  max_steps : int;
  hooks : Hooks.t;
  cost_scale : float;
      (** multiplies all instruction base costs; 1.0 = defaults *)
}

val default_config : config

val run : ?config:config -> Lir.Irmod.t -> entry:string -> run_result
(** Executes [entry] (a nullary or unary function; a unary entry receives
    0) to completion.  The module is laid out and globals are allocated
    first; the module's {!Lir.Lowered} image is reused across runs.

    Program errors the runtime detects — lock misuse such as unlocking an
    unheld mutex, division by zero, reads of undefined registers, bad
    thread create/join — end the run as a structured [Failed] outcome.
    Host-level exceptions are left for malformed modules, raised only when
    the offending instruction executes: [Failure] for a GEP or index
    through the wrong type or for reaching [unreachable], [Not_found] for
    a call to an unknown function or a branch to an unknown label,
    [Invalid_argument] for a call with the wrong number of arguments. *)
