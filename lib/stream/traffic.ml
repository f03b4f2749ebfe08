module Prng = Snorlax_util.Prng
module Pool = Snorlax_util.Pool
module Endpoint = Fleet.Endpoint
module Inject = Chaos.Inject
module Fault = Chaos.Fault

(* One reproduction of a bug, made once at stream start; endpoints
   replay it per incident through {!Endpoint.ship}, so a fleet of
   hundreds costs one simulator run per scenario, not one per endpoint
   per tick. *)
type baseline = Endpoint.baseline

type endpoint = {
  ep_id : int;
  ep_bug : int;  (* index into baselines *)
  ep_skew : int;  (* clock offset, nonzero only under Clock_skew *)
  mutable ep_incidents : int;
}

type t = {
  prng : Prng.t;
  fault : Fault.cls option;
  churn : bool;
  baselines : baseline array;
  mutable eps : endpoint list;  (* alive, oldest first *)
  mutable next_id : int;
  mutable tick_no : int;
  faults : int ref;
}

type batch = {
  tick : int;
  packets : bytes list;
  offered : int;
  incidents : int;
  load : float;
  burst : bool;
  joins : int;
  leaves : int;
  crashes : int;
}

(* Diurnal curve: a 24-tick "day" whose per-endpoint incident probability
   swings between the night floor and the daytime peak, plus occasional
   whole-fleet bursts (a bad deploy, a thundering herd). *)
let diurnal_period = 24
let load_floor = 0.08
let load_peak = 0.45
let burst_p = 0.08
let burst_mult = 3.0

(* Churn event probabilities per tick (only with [churn = true]); a
   crashing endpoint ships a truncated incident and disappears. *)
let join_p = 0.06
let leave_p = 0.04
let crash_p = 0.04

(* Under the Endpoint_death fault class, crashes are the fault itself:
   frequent, counted, and each dead machine is replaced so the fleet
   does not bleed dry over a long run. *)
let death_fault_p = 0.2

let alive t = List.length t.eps
let faults t = !(t.faults)

let add_endpoint t =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let skew =
    match t.fault with
    | Some cls -> Inject.skew_offset t.prng ~faults:t.faults cls
    | None -> 0
  in
  let ep =
    {
      ep_id = id;
      ep_bug = id mod Array.length t.baselines;
      ep_skew = skew;
      ep_incidents = 0;
    }
  in
  t.eps <- t.eps @ [ ep ];
  ep

(* The baseline corpus sweep: one simulator reproduction per bug, one
   bug per {!Obs.Scope.sweep} lane.  Failure warnings are emitted on the
   calling domain once every lane is back, in input order. *)
let prepare ?(config = Pt.Config.default) ?jobs bugs =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Obs.Scope.sweep ~jobs
    (fun bug -> (bug, Endpoint.reproduce ~config ~endpoint:0 bug))
    bugs
  |> List.filter_map (fun ((bug : Corpus.Bug.t), reproduced) ->
         match reproduced with
         | Ok b -> Some b
         | Error msg ->
           Obs.Log.warn "stream/baseline_failed"
             ~fields:
               [
                 ("bug", Obs.Log.Str bug.Corpus.Bug.id);
                 ("reason", Obs.Log.Str msg);
               ];
           None)

let create ~seed ~endpoints ?(churn = false) ?fault
    ?(config = Pt.Config.default) ?baselines bugs =
  if endpoints < 1 then invalid_arg "Traffic.create: endpoints < 1";
  let baselines =
    match baselines with Some bl -> bl | None -> prepare ~config bugs
  in
  if baselines = [] then invalid_arg "Traffic.create: no bug reproduced";
  let t =
    {
      prng = Prng.create ~seed;
      fault;
      churn;
      baselines = Array.of_list baselines;
      eps = [];
      next_id = 0;
      tick_no = 0;
      faults = ref 0;
    }
  in
  for _ = 1 to endpoints do
    ignore (add_endpoint t)
  done;
  t

(* One incident: the endpoint replays its scenario's baseline with its
   own identity and seed range, content faults applied per report.  A
   crashing endpoint ships only a prefix (Endpoint_death semantics). *)
let incident t ep ~truncate =
  ep.ep_incidents <- ep.ep_incidents + 1;
  let damage =
    match t.fault with
    | None -> Endpoint.no_damage
    | Some cls -> Inject.damage cls t.prng ~faults:t.faults ~skew:ep.ep_skew
  in
  let pkts =
    Endpoint.ship ~endpoint:ep.ep_id ~incident:ep.ep_incidents ~damage
      t.baselines.(ep.ep_bug)
  in
  if not truncate then pkts
  else begin
    let kept, lost = Endpoint.crash t.prng pkts in
    if t.fault = Some Fault.Endpoint_death then
      t.faults := !(t.faults) + lost;
    kept
  end

let load_of t tick =
  let phase =
    2.0 *. Float.pi
    *. float_of_int (tick mod diurnal_period)
    /. float_of_int diurnal_period
  in
  let d = load_floor +. ((load_peak -. load_floor) *. 0.5 *. (1.0 +. sin phase)) in
  if Prng.chance t.prng ~p:burst_p then (Float.min 1.0 (d *. burst_mult), true)
  else (d, false)

let tick t =
  let tickno = t.tick_no in
  t.tick_no <- tickno + 1;
  let load, burst = load_of t tickno in
  let joins = ref 0 and leaves = ref 0 and crashes = ref 0 in
  if t.churn then begin
    if Prng.chance t.prng ~p:join_p then begin
      ignore (add_endpoint t);
      incr joins
    end;
    if Prng.chance t.prng ~p:leave_p && List.length t.eps > 1 then begin
      let arr = Array.of_list t.eps in
      let victim = Prng.pick t.prng arr in
      t.eps <- List.filter (fun e -> not (e == victim)) t.eps;
      incr leaves
    end
  end;
  let crash_victim =
    let want =
      (t.churn && Prng.chance t.prng ~p:crash_p)
      || t.fault = Some Fault.Endpoint_death
         && Prng.chance t.prng ~p:death_fault_p
    in
    if want && t.eps <> [] then Some (Prng.pick t.prng (Array.of_list t.eps))
    else None
  in
  let shipments =
    List.filter_map
      (fun ep ->
        let is_victim =
          match crash_victim with Some v -> v == ep | None -> false
        in
        if is_victim then Some (incident t ep ~truncate:true)
        else if Prng.chance t.prng ~p:load then
          Some (incident t ep ~truncate:false)
        else None)
      t.eps
  in
  (match crash_victim with
  | Some v ->
    incr crashes;
    t.eps <- List.filter (fun e -> not (e == v)) t.eps;
    Obs.Log.warn "stream/endpoint_crash"
      ~fields:
        [ ("endpoint", Obs.Log.Int v.ep_id); ("tick", Obs.Log.Int tickno) ];
    (* Under the death fault class the machine is replaced; churn
       crashes shrink the fleet until a join refills it. *)
    if t.fault = Some Fault.Endpoint_death then ignore (add_endpoint t)
  | None -> ());
  let arrival = Endpoint.interleave shipments in
  let arrival =
    match t.fault with
    | None -> arrival
    | Some cls -> Inject.wire_faults cls t.prng ~faults:t.faults arrival
  in
  {
    tick = tickno;
    packets = List.map snd arrival;
    offered = List.length arrival;
    incidents = List.length shipments;
    load;
    burst;
    joins = !joins;
    leaves = !leaves;
    crashes = !crashes;
  }
