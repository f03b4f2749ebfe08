module Report = Snorlax_core.Report
module Prng = Snorlax_util.Prng
module Endpoint = Fleet.Endpoint

type stream = {
  packets : bytes list;
  faults : int;
  packets_sent : int;
  failing_sent : int;
}

(* --- report-content mutations -------------------------------------- *)

(* Each ring snapshot is hit with probability 1/2, so most reports are
   damaged somewhere but rarely everywhere — the interesting regime for
   graceful degradation. *)
let hit_p = 0.5

(* Per-packet probability for the lossy-wire classes. *)
let wire_p = 0.3

let truncate_ring prng faults (tid, ring) =
  let len = Bytes.length ring in
  if len = 0 || not (Prng.chance prng ~p:hit_p) then (tid, ring)
  else begin
    incr faults;
    (tid, Bytes.sub ring 0 (Prng.int prng ~bound:len))
  end

let overwrite_ring prng faults (tid, ring) =
  let len = Bytes.length ring in
  if len = 0 || not (Prng.chance prng ~p:hit_p) then (tid, ring)
  else begin
    incr faults;
    let ring = Bytes.copy ring in
    let start = Prng.int prng ~bound:len in
    let span = 1 + Prng.int prng ~bound:(min 16 (len - start)) in
    for i = start to start + span - 1 do
      Bytes.set ring i (Char.chr (Prng.int prng ~bound:256))
    done;
    (tid, ring)
  end

let mutate_rings cls prng faults traces =
  match (cls : Fault.cls) with
  | Fault.Ring_truncate -> List.map (truncate_ring prng faults) traces
  | Fault.Ring_overwrite -> List.map (overwrite_ring prng faults) traces
  | _ -> traces

(* The wire format carries unsigned times; a skewed clock cannot make a
   timestamp negative, only early. *)
let skew_time off t = max 0 (t + off)

let skew_offset prng ~faults (cls : Fault.cls) =
  match cls with
  | Fault.Clock_skew ->
    let off = Prng.in_range prng ~lo:(-1_000_000) ~hi:1_000_000 in
    if off <> 0 then incr faults;
    off
  | _ -> 0

let damage cls prng ~faults ~skew =
  let skewed t = if skew = 0 then t else skew_time skew t in
  {
    Endpoint.on_failing =
      (fun (r : Report.failing_report) ->
        let traces = mutate_rings cls prng faults r.Report.traces in
        {
          r with
          Report.traces;
          failure_time_ns = skewed r.Report.failure_time_ns;
        });
    on_success =
      (fun (r : Report.success_report) ->
        let s_traces = mutate_rings cls prng faults r.Report.s_traces in
        {
          r with
          Report.s_traces;
          trigger_time_ns = skewed r.Report.trigger_time_ns;
        });
  }

(* Wire-level faults act on an (already interleaved) arrival stream. *)
let wire_faults cls prng ~faults arrival =
  match (cls : Fault.cls) with
  | Fault.Wire_drop ->
    List.filter
      (fun _ ->
        if Prng.chance prng ~p:wire_p then begin
          incr faults;
          false
        end
        else true)
      arrival
  | Fault.Wire_duplicate ->
    List.concat_map
      (fun p ->
        if Prng.chance prng ~p:wire_p then begin
          incr faults;
          [ p; p ]
        end
        else [ p ])
      arrival
  | Fault.Wire_reorder ->
    let a = Array.of_list arrival in
    let before = Array.copy a in
    Prng.shuffle prng a;
    Array.iteri (fun i x -> if not (x == before.(i)) then incr faults) a;
    Array.to_list a
  | Fault.Wire_bitflip ->
    List.map
      (fun ((k, b) as p) ->
        if Bytes.length b > 0 && Prng.chance prng ~p:wire_p then begin
          incr faults;
          let b = Bytes.copy b in
          let pos = Prng.int prng ~bound:(Bytes.length b) in
          let bit = Prng.int prng ~bound:8 in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
          (k, b)
        end
        else p)
      arrival
  | Fault.Success_first ->
    let succ, fail = List.partition (fun (k, _) -> k = Endpoint.S) arrival in
    faults := !faults + List.length succ;
    succ @ fail
  | Fault.Ring_truncate | Fault.Ring_overwrite | Fault.Endpoint_death
  | Fault.Clock_skew ->
    arrival

(* --- stream assembly ------------------------------------------------ *)

let build ~prng ~cls ~endpoints baseline =
  if endpoints < 1 then invalid_arg "Inject.build: endpoints < 1";
  let faults = ref 0 in
  let shipments =
    List.init endpoints (fun endpoint ->
        let skew = skew_offset prng ~faults cls in
        Endpoint.ship ~endpoint ~incident:0
          ~damage:(damage cls prng ~faults ~skew)
          baseline)
  in
  let shipments =
    match cls with
    | Fault.Endpoint_death ->
      let victim = Prng.int prng ~bound:endpoints in
      List.mapi
        (fun e s ->
          if e <> victim then s
          else
            let kept, lost = Endpoint.crash prng s in
            faults := !faults + lost;
            kept)
        shipments
    | _ -> shipments
  in
  let arrival = wire_faults cls prng ~faults (Endpoint.interleave shipments) in
  {
    packets = List.map snd arrival;
    faults = !faults;
    packets_sent = List.length arrival;
    failing_sent =
      List.length (List.filter (fun (k, _) -> k = Endpoint.F) arrival);
  }
