module Dynbuf = Snorlax_util.Dynbuf
module Pool = Snorlax_util.Pool

(* [t_hi = None] mirrors the decoder's open upper bound: the trace ended
   before a later clock reading, so the event is unordered against any
   later event on another thread. *)
type event = {
  tid : int;
  seq : int;
  iid : int;
  pc : int;
  t_lo : int;
  t_hi : int option;
}

module Iset = Set.Make (Int)

type t = {
  executed : Iset.t;
  events : event array;
  events_by_iid : (int, event array) Hashtbl.t;
  lost_bytes : int;
  desynced_tids : int list;
}

(* Decode every trace, through the memo cache when enabled and across the
   domain pool when it pays.  Returns [(ready, finish)]: [ready i] yields
   trace [i]'s result, blocking only until the chunk containing it has
   finished (helping the pool meanwhile), so the caller's input-order
   merge overlaps the in-flight decodes; [finish ()] joins the batch and
   folds worker telemetry back into the ambient scope. *)
let decode_all m ~config ~tail_for ~jobs ~cache traces_a =
  let n = Array.length traces_a in
  let use_cache = Pt.Decode_cache.enabled cache in
  let keys = Array.make n "" in
  let is_miss = Array.make n false in
  let results : Pt.Decoder.result option array = Array.make n None in
  let miss_idx = Dynbuf.create () in
  Array.iteri
    (fun i (tid, snapshot) ->
      if use_cache then begin
        let k =
          Pt.Decode_cache.key m ~config ?tail_stop:(tail_for tid) snapshot
        in
        keys.(i) <- k;
        match Pt.Decode_cache.find cache k with
        | Some r -> results.(i) <- Some r
        | None ->
          is_miss.(i) <- true;
          Dynbuf.push miss_idx i
      end
      else begin
        is_miss.(i) <- true;
        Dynbuf.push miss_idx i
      end)
    traces_a;
  let misses = Dynbuf.to_array miss_idx in
  let telemetry = Obs.Scope.enabled () in
  (* Decode is CPU-bound: domains beyond the hardware thread count only
     add scheduler contention, so oversubscribed requests clamp to the
     core count.  [misses] caps further — no point waking idle workers. *)
  let eff_jobs = Pool.lanes ~jobs (Array.length misses) in
  let decode_one i =
    let tid, snapshot = traces_a.(i) in
    results.(i) <-
      Some (Pt.Decoder.decode_raw m ~config ?tail_stop:(tail_for tid) snapshot)
  in
  let pool_gauge () =
    if telemetry then
      Obs.Scope.set_gauge "decode/pool_size" (float_of_int (max 1 eff_jobs))
  in
  if eff_jobs > 1 then begin
    (* Chunked batch submission: misses group into at most [jobs * 2]
       chunks, cost-balanced by snapshot size, so one oversized trace
       does not serialize behind a pile of small ones and per-item pool
       round-trips disappear.  The walk table is built here, on the
       submitting domain, so workers only ever read it. *)
    Pt.Decoder.prepare m;
    let weights =
      Array.map (fun k -> Bytes.length (snd traces_a.(k))) misses
    in
    let chunks = Pool.balanced_chunks ~weights ~chunks:(eff_jobs * 2) in
    let chunk_of = Array.make n (-1) in
    Array.iteri
      (fun c ks -> Array.iter (fun k -> chunk_of.(misses.(k)) <- c) ks)
      chunks;
    (* One private registry per chunk, created before submission (workers
       only write into their own chunk's): the ambient scope is not
       domain-safe, and a worker's decode wall time can only be measured
       on that worker.  Each trace gets its own pt/decode_ns observation
       and pt/* record, so per-trace counters are chunk-invariant. *)
    let regs =
      Array.init (Array.length chunks) (fun _ ->
          if telemetry then Some (Obs.Metrics.create ()) else None)
    in
    let run_chunk c =
      Array.iter
        (fun k ->
          let i = misses.(k) in
          match regs.(c) with
          | Some reg ->
            let t0 = Obs.Span.raw_clock_ns () in
            decode_one i;
            Obs.Metrics.observe
              (Obs.Metrics.histogram reg "pt/decode_ns")
              (Obs.Span.raw_clock_ns () -. t0);
            Pt.Decoder.record_metrics ~into:reg
              (Option.get results.(i))
              ~snapshot_bytes:(Bytes.length (snd traces_a.(i)))
          | None -> decode_one i)
        chunks.(c)
    in
    let pool = Pool.get ~jobs:eff_jobs in
    let handle = Pool.submit pool (Array.length chunks) run_chunk in
    let ready i =
      if is_miss.(i) then begin
        Pool.wait_item pool handle chunk_of.(i);
        match results.(i) with
        | Some r ->
          (* Cache insertion on the submitting domain, as each trace is
             merged — not deferred to the end of the batch. *)
          if use_cache then Pt.Decode_cache.add cache keys.(i) r;
          r
        | None ->
          (* The batch failed before this chunk ran; join to re-raise. *)
          Pool.await pool handle;
          assert false
      end
      else Option.get results.(i)
    in
    let finish () =
      Pool.await pool handle;
      pool_gauge ();
      if telemetry then
        Array.iter (Option.iter Obs.Scope.merge_worker) regs
    in
    (ready, finish)
  end
  else begin
    (* Sequential path: decode inline with ambient telemetry.  Recording
       per actual invocation keeps pt/decode_calls a true decoder-work
       counter that cache hits do not inflate. *)
    Array.iter
      (fun i ->
        let _, snapshot = traces_a.(i) in
        if telemetry then begin
          Obs.Scope.timed "pt/decode_ns" (fun () -> decode_one i);
          Pt.Decoder.record_metrics
            (Option.get results.(i))
            ~snapshot_bytes:(Bytes.length snapshot)
        end
        else decode_one i;
        if use_cache then
          Pt.Decode_cache.add cache keys.(i) (Option.get results.(i)))
      misses;
    let ready i = Option.get results.(i) in
    (ready, pool_gauge)
  end

let process m ~config ?(fail_tails = []) ?jobs ?cache traces =
  (* Lay out before any fan-out so worker domains only ever read the
     module's (idempotent) layout tables. *)
  Lir.Irmod.layout m;
  let jobs = match jobs with Some j -> max 1 j | None -> Pool.default_jobs () in
  let cache = match cache with Some c -> c | None -> Pt.Decode_cache.shared in
  (* Tails indexed by tid; first entry per tid wins, matching the old
     List.find_opt scan without the O(traces * tails) cost. *)
  let tails = Hashtbl.create 8 in
  List.iter
    (fun (tid, stop_pc, t_hi) ->
      if not (Hashtbl.mem tails tid) then Hashtbl.add tails tid (stop_pc, t_hi))
    fail_tails;
  let tail_for tid = Hashtbl.find_opt tails tid in
  let traces_a = Array.of_list traces in
  let ready, finish =
    decode_all m ~config ~tail_for ~jobs ~cache traces_a
  in
  (* Merge in input order, overlapping the in-flight decodes: output is
     identical whatever the pool size. *)
  (* Collect in input order, overlapping the in-flight decodes ([ready]
     helps the pool while it waits); the flat event array is then built
     serially at a known size. *)
  let rs = Array.mapi (fun i _ -> (ready i : Pt.Decoder.result)) traces_a in
  finish ();
  let lost = ref 0 in
  let desynced = ref [] in
  let n_ev = ref 0 in
  Array.iteri
    (fun i (tid, _) ->
      let r = rs.(i) in
      lost := !lost + r.Pt.Decoder.lost_bytes;
      if r.Pt.Decoder.desynced then desynced := tid :: !desynced;
      n_ev := !n_ev + Array.length r.Pt.Decoder.steps)
    traces_a;
  let n_ev = !n_ev in
  let events =
    if n_ev = 0 then [||]
    else begin
      let first =
        let rec find i =
          let steps = rs.(i).Pt.Decoder.steps in
          if Array.length steps > 0 then (fst traces_a.(i), steps.(0))
          else find (i + 1)
        in
        find 0
      in
      let dummy =
        let tid, s = first in
        {
          tid;
          seq = 0;
          iid = s.Pt.Decoder.iid;
          pc = s.Pt.Decoder.pc;
          t_lo = s.Pt.Decoder.t_lo;
          t_hi = s.Pt.Decoder.t_hi;
        }
      in
      let events = Array.make n_ev dummy in
      let k = ref 0 in
      Array.iteri
        (fun i (tid, _) ->
          let steps = rs.(i).Pt.Decoder.steps in
          for seq = 0 to Array.length steps - 1 do
            let s = Array.unsafe_get steps seq in
            Array.unsafe_set events !k
              {
                tid;
                seq;
                iid = s.Pt.Decoder.iid;
                pc = s.Pt.Decoder.pc;
                t_lo = s.Pt.Decoder.t_lo;
                t_hi = s.Pt.Decoder.t_hi;
              };
            incr k
          done)
        traces_a;
      events
    end
  in
  (* Group instances per static instruction with a counting sort over the
     dense iid space: iids are small consecutive ints, so two array
     passes replace a hash lookup per event.  Events order is preserved
     inside each group, so instances stay in per-thread order. *)
  let by_iid = Hashtbl.create 64 in
  let executed = ref Iset.empty in
  if n_ev > 0 then begin
    let max_iid = ref 0 in
    for i = 0 to n_ev - 1 do
      let iid = (Array.unsafe_get events i).iid in
      if iid > !max_iid then max_iid := iid
    done;
    let counts = Array.make (!max_iid + 1) 0 in
    for i = 0 to n_ev - 1 do
      let iid = (Array.unsafe_get events i).iid in
      Array.unsafe_set counts iid (Array.unsafe_get counts iid + 1)
    done;
    let slots = Array.make (!max_iid + 1) [||] in
    let dummy = events.(0) in
    for iid = 0 to !max_iid do
      if counts.(iid) > 0 then begin
        slots.(iid) <- Array.make counts.(iid) dummy;
        counts.(iid) <- 0;
        executed := Iset.add iid !executed
      end
    done;
    for i = 0 to n_ev - 1 do
      let e = Array.unsafe_get events i in
      let a = Array.unsafe_get slots e.iid in
      Array.unsafe_set a (Array.unsafe_get counts e.iid) e;
      Array.unsafe_set counts e.iid (Array.unsafe_get counts e.iid + 1)
    done;
    for iid = 0 to !max_iid do
      if Array.length slots.(iid) > 0 then Hashtbl.add by_iid iid slots.(iid)
    done
  end;
  {
    executed = !executed;
    events;
    events_by_iid = by_iid;
    lost_bytes = !lost;
    desynced_tids = !desynced;
  }

let executes_before a b =
  if a.tid = b.tid then a.seq < b.seq
  else match a.t_hi with Some hi -> hi < b.t_lo | None -> false

let instances_arr t ~iid =
  Option.value ~default:[||] (Hashtbl.find_opt t.events_by_iid iid)

let instances t ~iid = Array.to_list (instances_arr t ~iid)
