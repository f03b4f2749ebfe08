(** Server-side trace decoder (the analogue of Intel's reference decoder
    plus the binary-to-IR mapping of §5).

    Given the module (the "binary") and one thread's ring-buffer snapshot,
    the decoder re-synchronizes at the first PSB, replays control flow by
    walking the CFG — consuming a TNT bit at every conditional branch and a
    TIP at every return — and assigns every replayed instruction a coarse
    time interval [t_lo, t_hi] bounded by the timing packets around it.
    Those intervals are exactly the partial order of §4.1 (step 3).

    An allocation-free {!Packet.Cursor} feeds a walker that resolves
    control flow through the module's run image ({!Lir.Lowered}, the one
    the simulator executes, built once per layout), accumulating steps
    in a per-domain arena reused across the decodes of a batch.  A ring
    that wrapped syncs at a mid-stream PSB, which the tracer emits only
    at a conditional branch that has already run: that branch is
    resolved without a step, and the walk starts at its target.
    Correctness is judged against the execution itself:
    [Oracle.Executed] checks every decoded step's iid and interval
    against the path the traced thread really ran. *)

type step = {
  pc : int;
  iid : int;
  t_lo : int;  (** ns; the instruction executed no earlier than this *)
  t_hi : int option;
      (** ns; and no later than this.  [None] is an open upper bound: the
          ring ended before any later timing packet, so window arithmetic
          like [t_hi - t_lo] never has to touch a sentinel value. *)
}

type result = {
  steps : step array;  (** oldest first; treat as immutable — cached
                           results are shared between decode consumers *)
  lost_bytes : int;  (** bytes before the first PSB (overwritten history) *)
  desynced : bool;
      (** true when replay hit control flow the packet stream cannot
          resolve (e.g. a branch whose TNT was overwritten) *)
  thread_ended : bool;
      (** true when the stream ends with the thread's exit (a TIP.END
          consumed at a return): the trace is complete, not cut by the
          ring.  Previously this signal was decoded and then dropped. *)
}

val decode :
  Lir.Irmod.t -> config:Config.t -> ?tail_stop:int * int -> bytes -> result
(** [decode m ~config snapshot] replays one thread's snapshot.
    [?tail_stop:(pc, t_hi)] continues replay past the last packet along
    branch-free code until [pc] (the failing instruction, whose time is
    known from the failure report) — the paper's crash pc binding.
    Records pt/* telemetry into the ambient {!Obs.Scope}. *)

val decode_raw :
  Lir.Irmod.t -> config:Config.t -> ?tail_stop:int * int -> bytes -> result
(** Exactly {!decode} minus the telemetry.  [Oracle.Diffcheck] checks
    rings against the execution with it, so its checks never count as
    decoder work in the pt/* counters. *)
