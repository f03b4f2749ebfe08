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

(* Decode every trace through the memo cache, the misses one per lane.
   Misses run largest snapshot first: the caller claims the first item
   while the workers wake, so a big ring queued behind a small one would
   wait out the wake-up.  Cache insertions stay on the caller, in input
   order, so the cache ends in the same state at every width. *)
let decode_all m ~config ~tail_for ~jobs ~cache traces_a =
  let use_cache = Pt.Decode_cache.enabled cache in
  let keys =
    Array.map
      (fun (tid, snapshot) ->
        if use_cache then
          Pt.Decode_cache.key m ~config ?tail_stop:(tail_for tid) snapshot
        else "")
      traces_a
  in
  let results =
    Array.map
      (fun k -> if use_cache then Pt.Decode_cache.find cache k else None)
      keys
  in
  let misses =
    Array.of_list
      (List.filter
         (fun i -> Option.is_none results.(i))
         (List.init (Array.length traces_a) Fun.id))
  in
  let size i = Bytes.length (snd traces_a.(i)) in
  let order = Array.copy misses in
  Array.stable_sort (fun a b -> compare (size b) (size a)) order;
  let lanes = Pool.lanes ~jobs (Array.length order) in
  let decoded =
    Obs.Scope.map_lanes (Pool.get ~jobs:lanes)
      (fun _ i ->
        let tid, snapshot = traces_a.(i) in
        Obs.Scope.timed "pt/decode_ns" (fun () ->
            Pt.Decoder.decode m ~config ?tail_stop:(tail_for tid) snapshot))
      order
  in
  Obs.Scope.set_gauge "decode/pool_size" (float_of_int (max 1 lanes));
  Array.iteri (fun k i -> results.(i) <- Some decoded.(k)) order;
  if use_cache then
    Array.iter
      (fun i -> Pt.Decode_cache.add cache keys.(i) (Option.get results.(i)))
      misses;
  Array.map Option.get results

let process m ~config ?(fail_tails = []) ?jobs ?cache traces =
  (* Lay out before any fan-out so lane domains only ever read the
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
  let rs = decode_all m ~config ~tail_for ~jobs ~cache traces_a in
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
