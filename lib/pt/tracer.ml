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
  scratch : Buffer.t;
  timing_scratch : Buffer.t;
  mutable bytes_written : int;
  mutable events_seen : int;
  mutable timing_packets : int;
}

let create ~config =
  {
    config;
    threads = Array.make 8 None;
    thread_count = 0;
    scratch = Buffer.create 64;
    timing_scratch = Buffer.create 16;
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
   PSB cadence — while the ring holds the (smaller) packed encoding. *)
let flush_pending t ts =
  if ts.pend_count > 0 then begin
    Packet.encode t.scratch
      (Packet.Tnt_packed { bits = ts.pend_bits; count = ts.pend_count });
    ts.pend_bits <- 0;
    ts.pend_count <- 0
  end

(* A TMA re-sync replaces MTC when the coarse counter jumped too far for
   its 8-bit payload to be unambiguous. *)
let mtc_wrap_guard = 200

let emit_timing_packet t into p =
  Packet.encode into p;
  t.timing_packets <- t.timing_packets + 1

(* The decoder clock value after the emitted MTC/TMA, or -1 when no
   boundary passed.  The hardware clock ticks MTC through quiet periods
   too; we model the first boundary after the previous activity
   explicitly (it is what bounds the preceding event's upper timestamp to
   one period) and compress the rest of a long gap into a TMA re-sync. *)
let mtc_like t ts ~into ~now_ns ~period =
  let ctc = now_ns / period in
  if ctc > ts.last_ctc then begin
    let jumped = ctc - ts.last_ctc in
    if jumped > 1 then
      emit_timing_packet t into
        (Packet.Mtc { ctc = (ts.last_ctc + 1) land 0xff });
    ts.last_ctc <- ctc;
    if jumped > mtc_wrap_guard then begin
      emit_timing_packet t into (Packet.Tma { tsc = now_ns });
      now_ns
    end
    else begin
      emit_timing_packet t into (Packet.Mtc { ctc = ctc land 0xff });
      ctc * period
    end
  end
  else -1

(* [last_timing_ns] mirrors the clock a decoder reconstructs, so CYC
   deltas are relative to the decoder's state, not the raw event times —
   otherwise an MTC followed by a CYC would double-count the gap. *)
let emit_timing t ts ~into ~now_ns =
  match t.config.Config.timing with
  | Config.No_timing -> ()
  | Config.Mtc_only { mtc_period_ns } ->
    let decoder_time = mtc_like t ts ~into ~now_ns ~period:mtc_period_ns in
    if decoder_time >= 0 then ts.last_timing_ns <- decoder_time
  | Config.Cyc_and_mtc { mtc_period_ns } ->
    let decoder_time = mtc_like t ts ~into ~now_ns ~period:mtc_period_ns in
    if decoder_time >= 0 then ts.last_timing_ns <- decoder_time;
    if now_ns > ts.last_timing_ns then begin
      emit_timing_packet t into
        (Packet.Cyc { delta = now_ns - ts.last_timing_ns });
      ts.last_timing_ns <- now_ns
    end

let emit_psb t ts ~now_ns ~pc =
  Packet.encode t.scratch (Packet.Psb { tsc = now_ns });
  Packet.encode t.scratch (Packet.Fup { pc });
  ts.bytes_since_psb <- 0;
  ts.last_timing_ns <- now_ns;
  (match t.config.Config.timing with
  | Config.Cyc_and_mtc { mtc_period_ns } | Config.Mtc_only { mtc_period_ns } ->
    ts.last_ctc <- now_ns / mtc_period_ns
  | Config.No_timing -> ());
  ts.started <- true

(* The bytes a PSB+FUP adds to [scratch]. *)
let psb_bytes t ts ~now_ns ~pc =
  let len0 = Buffer.length t.scratch in
  emit_psb t ts ~now_ns ~pc;
  Buffer.length t.scratch - len0

(* Stage the event's timing packets in a side buffer: whether any are
   due decides whether the pending TNT run must flush first (a packed
   run cannot span a timing packet), and staging keeps the flush bytes
   physically before the timing bytes in the ring. *)
let stage_timing t ts ~now_ns =
  Buffer.clear t.timing_scratch;
  emit_timing t ts ~into:t.timing_scratch ~now_ns;
  Buffer.length t.timing_scratch > 0

(* Append the staged timing packets; returns their byte count. *)
let commit_timing t =
  Buffer.add_buffer t.scratch t.timing_scratch;
  Buffer.length t.timing_scratch

let on_control t ~time event =
  t.events_seen <- t.events_seen + 1;
  let now_ns = int_of_float time in
  let tid = Sim.Hooks.control_event_tid event in
  let ts = thread_state t tid in
  Buffer.clear t.scratch;
  (* v1-equivalent bytes for this event: drives the cost model and the
     PSB pacing.  Flushed packed packets are excluded — their bits were
     charged at their own events. *)
  let charged =
    match event with
    | Sim.Hooks.Thread_start { entry_pc; _ } ->
      psb_bytes t ts ~now_ns ~pc:entry_pc
    | Sim.Hooks.Cond_branch { pc; taken; _ } ->
      let psb =
        if ts.started && ts.bytes_since_psb >= t.config.Config.psb_period_bytes
        then begin
          flush_pending t ts;
          psb_bytes t ts ~now_ns ~pc
        end
        else 0
      in
      let timing =
        if stage_timing t ts ~now_ns then begin
          flush_pending t ts;
          commit_timing t
        end
        else 0
      in
      if ts.pend_count = Packet.tnt_max_bits then flush_pending t ts;
      ts.pend_bits <-
        ts.pend_bits lor ((if taken then 1 else 0) lsl ts.pend_count);
      ts.pend_count <- ts.pend_count + 1;
      (* The v1 per-bit TNT is header + payload: 2 wire bytes. *)
      psb + timing + 2
    | Sim.Hooks.Ret_branch { target_pc; _ } ->
      let (_ : bool) = stage_timing t ts ~now_ns in
      (* A TIP is not a TNT bit: the pending run always flushes here. *)
      flush_pending t ts;
      let timing = commit_timing t in
      let len0 = Buffer.length t.scratch in
      (match target_pc with
      | Some pc -> Packet.encode t.scratch (Packet.Tip { pc })
      | None -> Packet.encode t.scratch Packet.Tip_end);
      timing + (Buffer.length t.scratch - len0)
    | Sim.Hooks.Thread_exit _ -> 0
  in
  let produced = Buffer.length t.scratch in
  if produced > 0 then begin
    Ringbuf.write_buffer ts.ring t.scratch;
    t.bytes_written <- t.bytes_written + produced
  end;
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
        Buffer.clear t.scratch;
        flush_pending t ts;
        Ringbuf.write_buffer ts.ring t.scratch;
        t.bytes_written <- t.bytes_written + Buffer.length t.scratch
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
