module Core = Snorlax_core
module Tp = Core.Trace_processing
module Report = Core.Report

(* The batch derivation over the executed-instruction union plus the
   per-pattern presence counts (indexed like [derivation.patterns]) —
   the only state the statistics stage (§4.5) needs.  Valid until a new
   report executes code outside the union. *)
type derived = {
  derivation : Core.Diagnosis.derived;
  in_failing : int array;
  in_successful : int array;
}

type t = {
  m : Lir.Irmod.t;
  config : Pt.Config.t;
  mutable first : (Report.failing_report * Tp.t) option;  (* the anchor *)
  mutable failing_tps : Tp.t list;  (* cached, newest first *)
  mutable success_tps : Tp.t list;
  mutable n_failing : int;
  mutable n_successful : int;
  mutable executed : Tp.Iset.t;
  mutable derived : derived option;  (* None = stale, re-derive on demand *)
  mutable rederives : int;
  mutable fast_updates : int;
}

type snapshot = {
  scored : Core.Statistics.scored list;
  top : Core.Statistics.scored option;
  unique_top : bool;
  anchor_iid : int;
  snap_failing : int;
  snap_successful : int;
  rederives : int;
  fast_updates : int;
}

let create m ~config =
  {
    m;
    config;
    first = None;
    failing_tps = [];
    success_tps = [];
    n_failing = 0;
    n_successful = 0;
    executed = Tp.Iset.empty;
    derived = None;
    rederives = 0;
    fast_updates = 0;
  }

let n_failing (t : t) = t.n_failing
let n_successful (t : t) = t.n_successful
let rederives (t : t) = t.rederives
let fast_updates (t : t) = t.fast_updates

(* Full re-derivation — batch stages 3–6 over the cached trace
   processings.  No trace is re-decoded (the tps are cached); only the
   derivation and the presence recount run. *)
let derive t first first_tp =
  Obs.Scope.timed "stream/rederive_ns" @@ fun () ->
  let derivation =
    Core.Diagnosis.derive t.m ~executed:t.executed ~first ~first_tp
  in
  let n = List.length derivation.Core.Diagnosis.patterns in
  let d =
    { derivation; in_failing = Array.make n 0; in_successful = Array.make n 0 }
  in
  let tally counts = List.iter (Core.Diagnosis.tally t.m derivation counts) in
  tally d.in_failing t.failing_tps;
  tally d.in_successful t.success_tps;
  t.rederives <- t.rederives + 1;
  Obs.Scope.count "stream/rederives" 1;
  t.derived <- Some d;
  d

let add_tp t ~is_failing tp =
  if is_failing then begin
    t.failing_tps <- tp :: t.failing_tps;
    t.n_failing <- t.n_failing + 1
  end
  else begin
    t.success_tps <- tp :: t.success_tps;
    t.n_successful <- t.n_successful + 1
  end;
  if Tp.Iset.subset tp.Tp.executed t.executed then
    (* The common fleet case: another endpoint reporting an already-seen
       schedule.  Nothing derived changes — bump the counters. *)
    match t.derived with
    | Some d ->
      Core.Diagnosis.tally t.m d.derivation
        (if is_failing then d.in_failing else d.in_successful)
        tp;
      t.fast_updates <- t.fast_updates + 1;
      Obs.Scope.count "stream/fast_updates" 1
    | None -> ()
  else begin
    (* New code executed: the points-to scope (and with it candidates and
       patterns) may change, so everything derived is stale.  The
       re-derivation is deferred to the next [results] call so a burst of
       novel reports pays for one re-derive, not one each. *)
    t.executed <- Tp.Iset.union t.executed tp.Tp.executed;
    t.derived <- None
  end

let add_failing t ?jobs ?cache (r : Report.failing_report) =
  let tp = Core.Diagnosis.process_failing t.m ~config:t.config ?jobs ?cache r in
  if Option.is_none t.first then t.first <- Some (r, tp);
  add_tp t ~is_failing:true tp

let add_successful t ?jobs ?cache (s : Report.success_report) =
  let tp =
    Core.Diagnosis.process_successful t.m ~config:t.config ?jobs ?cache s
  in
  add_tp t ~is_failing:false tp

let results t =
  match t.first with
  | None -> None
  | Some (first, first_tp) ->
    let d =
      match t.derived with Some d -> d | None -> derive t first first_tp
    in
    let scored =
      Core.Diagnosis.rank d.derivation ~first_tp ~n_failing:t.n_failing
        ~in_failing:d.in_failing ~in_successful:d.in_successful
    in
    Some
      {
        scored;
        top = Core.Statistics.top scored;
        unique_top = Core.Statistics.is_unique_top scored;
        anchor_iid = d.derivation.Core.Diagnosis.anchor_iid;
        snap_failing = t.n_failing;
        snap_successful = t.n_successful;
        rederives = t.rederives;
        fast_updates = t.fast_updates;
      }
