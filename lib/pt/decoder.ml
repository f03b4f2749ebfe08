(* [t_hi = None] is an open upper bound: the ring ended before any later
   timing packet, so the event is only known to happen at or after
   [t_lo].  Keeping the open end explicit (rather than a max_int
   sentinel) makes window arithmetic such as [t_hi - t_lo] total for
   consumers.

   A zero-allocation byte cursor feeds a CFG walker that resolves every
   branch target through the module's run image ([Lir.Lowered], built
   once per layout and shared with the simulator) and accumulates steps
   in a per-domain integer arena reused across decodes.  Its reference
   is the execution itself: the oracle replays each corpus report with a
   recorder and checks every decoded step's iid and interval against
   what the thread ran ([Oracle.Executed]). *)
module Dynbuf = Snorlax_util.Dynbuf

type step = { pc : int; iid : int; t_lo : int; t_hi : int option }

type result = {
  steps : step array;
  lost_bytes : int;
  desynced : bool;
  thread_ended : bool;
}

let mtc_period config =
  match config.Config.timing with
  | Config.Cyc_and_mtc { mtc_period_ns } | Config.Mtc_only { mtc_period_ns } ->
    mtc_period_ns
  | Config.No_timing -> 0

exception Desync of string
exception Thread_end

let max_replay_steps = 5_000_000

(* --- resolving pcs ---------------------------------------------------------

   Control flow is a pure function of the module layout: each function's
   successors, branch targets and callee entries sit in its
   [Lir.Lowered.walk] — flat arrays in pc order, one load per step, no
   hashing, no allocation. *)

module L = Lir.Lowered

(* --- cursor walker --------------------------------------------------------

   Steps accumulate into a stride-4 integer arena (pc, iid, t_lo, t_hi
   slot) held in domain-local storage, so a batch of decodes on one
   domain reuses the same backing array instead of reallocating per
   trace.  The t_hi slot is an int: >= 0 a concrete bound, [hi_pending]
   waiting for the next timing packet to backfill; any slot still
   negative at materialization is the open upper bound [None]. *)

let hi_pending = -2

let arena_key : int Dynbuf.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Dynbuf.create ())

type cwalker = {
  img : L.t;
  mutable wk : L.walk;  (* the function the walk is in *)
  mutable cur_pc : int;
  mutable t_lo : int;
  mutable sync_at_branch : bool;
      (* synced on a FUP naming a conditional branch that already ran *)
  acc : int Dynbuf.t;
}

(* Another function's pc (a call, a return, a sync): find its walk. *)
let enter w pc =
  if pc land 3 <> 0 then raise (Desync "pc not instruction-aligned");
  let wk = L.walk_at w.img pc in
  let idx = (pc - wk.L.base) asr 2 in
  if idx < 0 || idx >= Array.length wk.L.iids then
    raise (Desync "pc maps to no instruction");
  w.wk <- wk;
  idx

(* The ordinal of [pc] in [w.wk], which [slot_of] leaves holding it.
   Bases are page-aligned, so [d] is 4-aligned iff [pc] is. *)
let[@inline] slot_of w pc =
  let d = pc - w.wk.L.base in
  if d >= 0 && d land 3 = 0 && d lsr 2 < Array.length w.wk.L.iids then d lsr 2
  else enter w pc

let[@inline] ctl_at w idx = Array.unsafe_get w.wk.L.ctl idx

let[@inline] emit_c w idx ~hi =
  (* [idx] was validated by [slot_of]. *)
  Dynbuf.push4 w.acc w.cur_pc (Array.unsafe_get w.wk.L.iids idx) w.t_lo hi;
  if Dynbuf.length w.acc > max_replay_steps * 4 then
    raise (Desync "replay step limit")

(* Advance through branch-free instructions, emitting each with the
   current interval, until an instruction that needs a control packet to
   resolve.  Returns that instruction's slot. *)
let rec walk_until_control_c w ~hi =
  let idx = slot_of w w.cur_pc in
  match ctl_at w idx with
  | L.Straight ->
    emit_c w idx ~hi;
    w.cur_pc <- w.cur_pc + 4;
    walk_until_control_c w ~hi
  | L.Jump | L.Direct_call ->
    emit_c w idx ~hi;
    w.cur_pc <- Array.unsafe_get w.wk.L.a idx;
    walk_until_control_c w ~hi
  | L.Branch | L.Return | L.Library_call -> idx
  | L.Trap -> raise (Desync "walked into unreachable")

(* Consume one TNT bit: walk to the pending control point, which must be
   a conditional branch.  The branch a sync FUP named only resolves: its
   step ran before the sync's timestamp, which cannot stamp it. *)
let consume_tnt_c w ~taken ~t_lo_ev ~hi =
  let idx = walk_until_control_c w ~hi in
  if ctl_at w idx <> L.Branch then
    raise (Desync "control mismatch: TNT at a non-conditional");
  if w.sync_at_branch then w.sync_at_branch <- false else emit_c w idx ~hi;
  w.cur_pc <-
    (if taken then Array.unsafe_get w.wk.L.a idx
     else Array.unsafe_get w.wk.L.b idx);
  w.t_lo <- t_lo_ev

(* Consume a TIP (target pc) or TIP.END ([is_end]): the control point
   must be a return or an intrinsic call.  [is_end] is the packet kind,
   not the sign of [target] — a corrupt TIP can carry a varint that
   overflowed negative, and that garbage target must be stored as-is,
   desyncing only if dereferenced. *)
let consume_tip_c w ~target ~is_end ~t_lo_ev ~hi =
  let idx = walk_until_control_c w ~hi in
  match ctl_at w idx with
  | L.Library_call ->
    if not is_end then begin
      emit_c w idx ~hi;
      w.cur_pc <- target;
      w.t_lo <- t_lo_ev
    end
    else raise (Desync "control mismatch: TIP.END at a call")
  | L.Return ->
    emit_c w idx ~hi;
    w.t_lo <- t_lo_ev;
    if is_end then raise Thread_end else w.cur_pc <- target
  | L.Straight | L.Jump | L.Direct_call | L.Branch | L.Trap ->
    raise (Desync "control mismatch: TIP at a non-return")

(* After the last packet, replay branch-free code up to the failing pc. *)
let walk_tail_c w ~stop_pc ~hi =
  let rec go () =
    if w.cur_pc = stop_pc then emit_c w (slot_of w w.cur_pc) ~hi
    else begin
      let idx = slot_of w w.cur_pc in
      match ctl_at w idx with
      | L.Branch | L.Return | L.Trap -> ()
      | L.Jump | L.Direct_call ->
        emit_c w idx ~hi;
        w.cur_pc <- Array.unsafe_get w.wk.L.a idx;
        go ()
      | L.Straight | L.Library_call ->
        (* Straight-line code; an intrinsic call in the tail falls
           through too (its return TIP was never traced). *)
        emit_c w idx ~hi;
        w.cur_pc <- w.cur_pc + 4;
        go ()
    end
  in
  go ()

let decode_raw m ~config ?tail_stop snapshot =
  let img = L.of_module m in
  match Packet.scan_psb snapshot ~pos:0 with
  | None ->
    {
      steps = [||];
      lost_bytes = Bytes.length snapshot;
      desynced = false;
      thread_ended = false;
    }
  | Some sync_pos ->
    let period = mtc_period config in
    let acc = Domain.DLS.get arena_key in
    Dynbuf.clear acc;
    let w =
      {
        img;
        wk = L.empty_walk;
        cur_pc = -1;
        t_lo = 0;
        sync_at_branch = false;
        acc;
      }
    in
    let cur = Packet.Cursor.make snapshot ~pos:sync_pos in
    let time = ref 0 in
    let abs_ctc = ref 0 in
    (* True when the previous packet was an exact timing packet
       (PSB/TMA/CYC): the control packet directly after one is stamped
       exactly, hi = lo. *)
    let prev_exact = ref false in
    (* First arena t_hi slot still waiting for the next timing packet. *)
    let pending_from = ref (-1) in
    let backfill () =
      if !pending_from >= 0 then begin
        let v = !time in
        let n = Dynbuf.length acc in
        let i = ref (!pending_from + 3) in
        while !i < n do
          if Dynbuf.unsafe_get acc !i = hi_pending then
            Dynbuf.unsafe_set acc !i v;
          i := !i + 4
        done;
        pending_from := -1
      end
    in
    let mark_pending () =
      if !pending_from < 0 then pending_from := Dynbuf.length acc
    in
    (* A timing packet at the cursor advances the clock and backfills;
       other packets leave both alone. *)
    let timing () =
      let v = cur.Packet.Cursor.value in
      match cur.Packet.Cursor.kind with
      | Packet.Cursor.Psb | Packet.Cursor.Tma ->
        time := v;
        if period > 0 then abs_ctc := v / period;
        backfill ()
      | Packet.Cursor.Cyc ->
        time := !time + v;
        backfill ()
      | Packet.Cursor.Mtc ->
        if period > 0 then begin
          (* Smallest absolute counter >= current with this low byte. *)
          let base = !abs_ctc land lnot 0xff in
          let candidate = base lor v in
          let abs =
            if candidate >= !abs_ctc then candidate else candidate + 0x100
          in
          abs_ctc := abs;
          time := max !time (abs * period)
        end;
        backfill ()
      | Packet.Cursor.Eof | Packet.Cursor.Fup | Packet.Cursor.Tnt
      | Packet.Cursor.Tip | Packet.Cursor.Tip_end -> ()
    in
    let desynced = ref false in
    let ended = ref false in
    (try
       let continue = ref true in
       while !continue do
         Packet.Cursor.advance cur;
         match cur.Packet.Cursor.kind with
         | Packet.Cursor.Eof -> continue := false
         | Packet.Cursor.Psb | Packet.Cursor.Tma | Packet.Cursor.Cyc ->
           timing ();
           prev_exact := true
         | Packet.Cursor.Mtc ->
           timing ();
           prev_exact := false
         | Packet.Cursor.Fup ->
           if w.cur_pc = -1 then begin
             let pc = cur.Packet.Cursor.value in
             w.cur_pc <- pc;
             w.t_lo <- !time;
             (* A thread-start FUP binds the entry pc before it runs.  The
                tracer emits a mid-stream PSB only at a conditional
                branch's control event, which fires after the branch ran:
                the walk starts at the branch's resolved target, whose
                time really is >= tsc. *)
             w.sync_at_branch <-
               (match slot_of w pc with
               | idx -> ctl_at w idx = L.Branch
               | exception Desync _ -> false)
           end;
           prev_exact := false
         | Packet.Cursor.Tnt ->
           let bits = cur.Packet.Cursor.value in
           let count = cur.Packet.Cursor.count in
           if w.cur_pc <> -1 then
             for j = 0 to count - 1 do
               let hi =
                 if !prev_exact && j = 0 then !time
                 else begin
                   mark_pending ();
                   hi_pending
                 end
               in
               consume_tnt_c w
                 ~taken:((bits lsr j) land 1 = 1)
                 ~t_lo_ev:!time ~hi
             done;
           prev_exact := false
         | Packet.Cursor.Tip | Packet.Cursor.Tip_end ->
           let is_end = cur.Packet.Cursor.kind = Packet.Cursor.Tip_end in
           let target = if is_end then -1 else cur.Packet.Cursor.value in
           if w.cur_pc <> -1 then begin
             let hi =
               if !prev_exact then !time
               else begin
                 mark_pending ();
                 hi_pending
               end
             in
             consume_tip_c w ~target ~is_end ~t_lo_ev:!time ~hi
           end;
           prev_exact := false
       done;
       match tail_stop with
       | Some (stop_pc, t_hi) when w.cur_pc <> -1 ->
         (* The tail ends at the failure, whose time is known. *)
         walk_tail_c w ~stop_pc ~hi:t_hi
       | Some _ | None -> ()
     with
    | Desync _ -> desynced := true
    | Thread_end -> ended := true);
    (* A desync or thread end stops the walk, but hi timestamps come
       from the whole packet stream: keep reading timing packets until
       the steps already emitted have their backfill. *)
    while
      !pending_from >= 0
      && (Packet.Cursor.advance cur;
          cur.Packet.Cursor.kind <> Packet.Cursor.Eof)
    do
      timing ()
    done;
    let n = Dynbuf.length acc / 4 in
    (* Consecutive steps usually share the same backfilled hi bound, so
       one [Some] box serves the whole run. *)
    let last_h = ref min_int in
    let last_opt = ref None in
    let steps =
      Array.init n (fun i ->
          let base = i * 4 in
          let h = Dynbuf.unsafe_get acc (base + 3) in
          {
            pc = Dynbuf.unsafe_get acc base;
            iid = Dynbuf.unsafe_get acc (base + 1);
            t_lo = Dynbuf.unsafe_get acc (base + 2);
            t_hi =
              (if h < 0 then None
               else begin
                 if h <> !last_h then begin
                   last_h := h;
                   last_opt := Some h
                 end;
                 !last_opt
               end);
          })
    in
    { steps; lost_bytes = sync_pos; desynced = !desynced; thread_ended = !ended }

let record_metrics ?into r ~snapshot_bytes =
  let record count observe =
    count "pt/decode_calls" 1;
    count "pt/decoded_steps" (Array.length r.steps);
    count "pt/lost_bytes" r.lost_bytes;
    count "pt/desyncs" (if r.desynced then 1 else 0);
    count "pt/thread_ended" (if r.thread_ended then 1 else 0);
    observe "pt/snapshot_bytes" (float_of_int snapshot_bytes)
  in
  match into with
  | Some m ->
    (* A private (typically pool-worker) registry: record directly, no
       ambient state touched, so this is safe off the main domain. *)
    record
      (fun name n -> Obs.Metrics.add (Obs.Metrics.counter m name) n)
      (fun name v -> Obs.Metrics.observe (Obs.Metrics.histogram m name) v)
  | None ->
    if Obs.Scope.enabled () then record Obs.Scope.count Obs.Scope.observe

let decode m ~config ?tail_stop snapshot =
  let r = decode_raw m ~config ?tail_stop snapshot in
  record_metrics r ~snapshot_bytes:(Bytes.length snapshot);
  r
