module Ringbuf = Snorlax_util.Ringbuf

type thread_state = {
  ring : Ringbuf.t;
  mutable last_ctc : int;  (** absolute coarse-clock value last emitted *)
  mutable last_timing_ns : int;
  mutable bytes_since_psb : int;
      (** charged (v1-equivalent) bytes, not ring bytes — see below *)
  mutable started : bool;
  mutable pend_bits : int;  (** TNT bits awaiting a packed packet *)
  mutable pend_count : int;
}

type t = {
  config : Config.t;
  mutable threads : thread_state option array;  (** indexed by tid *)
  mutable thread_count : int;
  mutable bytes_written : int;
  mutable events_seen : int;
  mutable timing_packets : int;
}

let create ~config =
  {
    config;
    threads = Array.make 8 None;
    thread_count = 0;
    bytes_written = 0;
    events_seen = 0;
    timing_packets = 0;
  }

let thread_state t tid =
  if tid >= Array.length t.threads then begin
    let grown = Array.make (max (tid + 1) (2 * Array.length t.threads)) None in
    Array.blit t.threads 0 grown 0 (Array.length t.threads);
    t.threads <- grown
  end;
  match t.threads.(tid) with
  | Some ts -> ts
  | None ->
    let ts =
      {
        ring = Ringbuf.create ~capacity:t.config.Config.buffer_size;
        last_ctc = 0;
        last_timing_ns = 0;
        bytes_since_psb = 0;
        started = false;
        pend_bits = 0;
        pend_count = 0;
      }
    in
    t.threads.(tid) <- Some ts;
    t.thread_count <- t.thread_count + 1;
    ts

(* Consecutive branch outcomes accumulate per thread and hit the ring as
   one packed multi-bit TNT.  The packed run must sit where its first bit
   was taken, so any packet that is not a TNT bit — PSB, timing, TIP —
   forces a flush first; a run therefore never spans a timing packet and
   the expanded stream is position-for-position the v1 per-bit stream.

   Cost accounting is deliberately NOT the ring byte count: the tracing
   tax fed back into the simulated clock (and [bytes_since_psb], which
   paces PSBs) charges each TNT bit the 2 wire bytes of the v1 per-bit
   packet at the event that took the branch.  Charged bytes are therefore
   bit-identical to v1 — same clock evolution, same interleavings, same
   PSB cadence — while the ring holds the (smaller) packed encoding.
   Every packet goes straight into the thread's ring; a charge is the
   ring's [total_written] delta across the packets it covers. *)
let flush_pending ts =
  if ts.pend_count > 0 then begin
    Packet.put_tnt_packed ts.ring ~bits:ts.pend_bits ~count:ts.pend_count;
    ts.pend_bits <- 0;
    ts.pend_count <- 0
  end

(* A TMA re-sync replaces MTC when the coarse counter jumped too far for
   its 8-bit payload to be unambiguous. *)
let mtc_wrap_guard = 200

(* Whether [emit_timing] would write anything at [now_ns]: decided
   before any byte is written, so a due timing packet can flush the
   pending TNT run first and the run's bytes land physically before the
   timing bytes.  A due MTC boundary is due timing whatever CYC does
   after it; without one, CYC is due iff time moved past the decoder's
   clock. *)
let timing_due t ts ~now_ns =
  match t.config.Config.timing with
  | Config.No_timing -> false
  | Config.Mtc_only { mtc_period_ns } -> now_ns / mtc_period_ns > ts.last_ctc
  | Config.Cyc_and_mtc { mtc_period_ns } ->
    now_ns / mtc_period_ns > ts.last_ctc || now_ns > ts.last_timing_ns

(* The decoder clock value after the emitted MTC/TMA, or -1 when no
   boundary passed.  The hardware clock ticks MTC through quiet periods
   too; we model the first boundary after the previous activity
   explicitly (it is what bounds the preceding event's upper timestamp to
   one period) and compress the rest of a long gap into a TMA re-sync. *)
let mtc_like t ts ~now_ns ~period =
  let ctc = now_ns / period in
  if ctc > ts.last_ctc then begin
    let jumped = ctc - ts.last_ctc in
    if jumped > 1 then begin
      Packet.put_mtc ts.ring ~ctc:((ts.last_ctc + 1) land 0xff);
      t.timing_packets <- t.timing_packets + 1
    end;
    ts.last_ctc <- ctc;
    t.timing_packets <- t.timing_packets + 1;
    if jumped > mtc_wrap_guard then begin
      Packet.put_tma ts.ring ~tsc:now_ns;
      now_ns
    end
    else begin
      Packet.put_mtc ts.ring ~ctc:(ctc land 0xff);
      ctc * period
    end
  end
  else -1

(* [last_timing_ns] mirrors the clock a decoder reconstructs, so CYC
   deltas are relative to the decoder's state, not the raw event times —
   otherwise an MTC followed by a CYC would double-count the gap. *)
let emit_timing t ts ~now_ns =
  match t.config.Config.timing with
  | Config.No_timing -> ()
  | Config.Mtc_only { mtc_period_ns } ->
    let decoder_time = mtc_like t ts ~now_ns ~period:mtc_period_ns in
    if decoder_time >= 0 then ts.last_timing_ns <- decoder_time
  | Config.Cyc_and_mtc { mtc_period_ns } ->
    let decoder_time = mtc_like t ts ~now_ns ~period:mtc_period_ns in
    if decoder_time >= 0 then ts.last_timing_ns <- decoder_time;
    if now_ns > ts.last_timing_ns then begin
      Packet.put_cyc ts.ring ~delta:(now_ns - ts.last_timing_ns);
      t.timing_packets <- t.timing_packets + 1;
      ts.last_timing_ns <- now_ns
    end

(* PSB + FUP; returns their byte count. *)
let emit_psb t ts ~now_ns ~pc =
  let w0 = Ringbuf.total_written ts.ring in
  Packet.put_psb ts.ring ~tsc:now_ns;
  Packet.put_fup ts.ring ~pc;
  ts.bytes_since_psb <- 0;
  ts.last_timing_ns <- now_ns;
  (match t.config.Config.timing with
  | Config.Cyc_and_mtc { mtc_period_ns } | Config.Mtc_only { mtc_period_ns } ->
    ts.last_ctc <- now_ns / mtc_period_ns
  | Config.No_timing -> ());
  ts.started <- true;
  Ringbuf.total_written ts.ring - w0

(* The pending run flushes first (its bits were charged at their own
   events); returns the timing bytes written after it. *)
let flush_then_timing t ts ~now_ns =
  flush_pending ts;
  let w0 = Ringbuf.total_written ts.ring in
  emit_timing t ts ~now_ns;
  Ringbuf.total_written ts.ring - w0

let on_control t ~time event =
  t.events_seen <- t.events_seen + 1;
  let now_ns = int_of_float time in
  let tid = Sim.Hooks.control_event_tid event in
  let ts = thread_state t tid in
  let written0 = Ringbuf.total_written ts.ring in
  (* v1-equivalent bytes for this event: drives the cost model and the
     PSB pacing.  Flushed packed packets are excluded — their bits were
     charged at their own events. *)
  let charged =
    match event with
    | Sim.Hooks.Thread_start { entry_pc; _ } -> emit_psb t ts ~now_ns ~pc:entry_pc
    | Sim.Hooks.Cond_branch { pc; taken; _ } ->
      let psb =
        if ts.started && ts.bytes_since_psb >= t.config.Config.psb_period_bytes
        then begin
          flush_pending ts;
          emit_psb t ts ~now_ns ~pc
        end
        else 0
      in
      let timing =
        if timing_due t ts ~now_ns then flush_then_timing t ts ~now_ns else 0
      in
      if ts.pend_count = Packet.tnt_max_bits then flush_pending ts;
      ts.pend_bits <-
        ts.pend_bits lor ((if taken then 1 else 0) lsl ts.pend_count);
      ts.pend_count <- ts.pend_count + 1;
      (* The v1 per-bit TNT is header + payload: 2 wire bytes. *)
      psb + timing + 2
    | Sim.Hooks.Ret_branch { target_pc; _ } ->
      (* A TIP is not a TNT bit: the pending run always flushes here. *)
      let timing = flush_then_timing t ts ~now_ns in
      let w0 = Ringbuf.total_written ts.ring in
      (match target_pc with
      | Some pc -> Packet.put_tip ts.ring ~pc
      | None -> Packet.put_tip_end ts.ring);
      timing + (Ringbuf.total_written ts.ring - w0)
    | Sim.Hooks.Thread_exit _ -> 0
  in
  t.bytes_written <- t.bytes_written + (Ringbuf.total_written ts.ring - written0);
  ts.bytes_since_psb <- ts.bytes_since_psb + charged;
  let c = t.config.Config.costs in
  c.Config.per_event_ns
  +. (c.Config.per_byte_ns *. float_of_int charged)
  +. (c.Config.per_thread_ns *. float_of_int t.thread_count)

let snapshot t =
  (* Pending TNT runs flush to the rings first: a snapshot must expose
     every branch the thread has taken, not hide a partial run. *)
  Array.iter
    (function
      | Some ts when ts.pend_count > 0 ->
        let w0 = Ringbuf.total_written ts.ring in
        flush_pending ts;
        t.bytes_written <- t.bytes_written + (Ringbuf.total_written ts.ring - w0)
      | Some _ | None -> ())
    t.threads;
  (* Snapshot is the reconciliation point, so the hot per-event path never
     touches the ambient scope: cumulative totals are published here. *)
  if Obs.Scope.enabled () then begin
    Obs.Scope.set_gauge "pt/bytes_written" (float_of_int t.bytes_written);
    Obs.Scope.set_gauge "pt/events_seen" (float_of_int t.events_seen);
    Obs.Scope.set_gauge "pt/timing_packets" (float_of_int t.timing_packets);
    Obs.Scope.set_gauge "pt/threads" (float_of_int t.thread_count);
    Obs.Scope.count "pt/snapshots" 1
  end;
  let acc = ref [] in
  for tid = Array.length t.threads - 1 downto 0 do
    match t.threads.(tid) with
    | Some ts -> acc := (tid, Ringbuf.snapshot ts.ring) :: !acc
    | None -> ()
  done;
  !acc

let bytes_written t = t.bytes_written
let events_seen t = t.events_seen
let timing_packets t = t.timing_packets
let thread_count t = t.thread_count
