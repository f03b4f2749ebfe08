module Stats = Snorlax_util.Stats
module D = Snorlax_core.Diagnosis

type row = {
  bug_id : string;
  system : string;
  analysis_s : float;
  hybrid_pta_s : float;
  static_pta_s : float;
  speedup : float;
  scope_reduction : float;
}

(* Time the whole-program analysis over a few repetitions so that the
   ratio is stable even when a single solve is sub-millisecond. *)
let timed_static m =
  let reps = 5 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    ignore (Analysis.Pointsto.analyze_all m)
  done;
  (Sys.time () -. t0) /. float_of_int reps

let timed_hybrid m ~executed =
  let reps = 5 in
  let t0 = Sys.time () in
  for _ = 1 to reps do
    ignore
      (Analysis.Pointsto.analyze m ~scope:(fun iid ->
           Snorlax_core.Trace_processing.Iset.mem iid executed))
  done;
  (Sys.time () -. t0) /. float_of_int reps

(* Steps 2-7 in wall-clock seconds: the diagnosis's root span. *)
let pipeline_s (r : D.result) =
  let root =
    List.find
      (fun (sp : Obs.Span.span) -> sp.Obs.Span.name = "diagnosis")
      r.D.spans
  in
  Obs.Span.duration_ns root /. 1e9

let of_entry (e : Eval_runs.entry) =
  let m = e.Eval_runs.collected.Corpus.Runner.built.Corpus.Bug.m in
  let first = List.hd e.Eval_runs.collected.Corpus.Runner.failing in
  let tp = D.process_failing m ~config:Pt.Config.default first in
  let executed = tp.Snorlax_core.Trace_processing.executed in
  let hybrid_pta_s = timed_hybrid m ~executed in
  let static_pta_s = timed_static m in
  let c = e.Eval_runs.diagnosis.D.stage_counts in
  {
    bug_id = e.Eval_runs.bug.Corpus.Bug.id;
    system = e.Eval_runs.bug.Corpus.Bug.system;
    analysis_s = pipeline_s e.Eval_runs.diagnosis;
    hybrid_pta_s;
    static_pta_s;
    speedup = static_pta_s /. Float.max 1e-6 hybrid_pta_s;
    scope_reduction =
      float_of_int c.D.total_instrs
      /. float_of_int (max 1 c.D.after_trace_processing);
  }

let run () =
  let rows = List.map of_entry (Eval_runs.eval_entries ()) in
  (rows, Stats.geomean (List.map (fun r -> r.speedup) rows))
