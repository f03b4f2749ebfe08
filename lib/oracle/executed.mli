(** Ground truth for the trace decoder: the path each thread really
    executed, recorded by an [on_instr] hook that costs 0.0, so a replay
    with it attached takes the interleaving that produced the rings. *)

type t

val create : unit -> t

val hooks : t -> Sim.Hooks.t
(** The recorder; combine it with the PT driver's hooks. *)

val check :
  t ->
  tid:int ->
  ?tail_stop:int * int ->
  Pt.Decoder.result ->
  (unit, string) result
(** [check t ~tid d] holds when thread [tid]'s decoded iids are a
    contiguous run of its executed iids and every executed time lies in
    its step's [[t_lo, t_hi]] (1 ns slack; an open [t_hi] bounds
    nothing).  With the decode's own [?tail_stop:(pc, t)], the run must
    end at the last executed instance of [pc] at or before [t] ns.  A
    desynced decode fails: callers check only undamaged rings.  [Error]
    names the first disagreement. *)
