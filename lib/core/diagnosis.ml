module Tp = Trace_processing

type stage_counts = {
  total_instrs : int;
  after_trace_processing : int;
  after_points_to : int;
  after_type_ranking : int;
  after_patterns : int;
  after_statistics : int;
}

type timings = { hybrid_analysis_s : float; pipeline_s : float }

type result = {
  scored : Statistics.scored list;
  top : Statistics.scored option;
  unique_top : bool;
  stage_counts : stage_counts;
  timings : timings;
  anchor_iid : int;
  executed_count : int;
  desynced : bool;
  spans : Obs.Span.span list;
}

let stage_names =
  [
    "diagnosis/layout";
    "diagnosis/trace_processing";
    "diagnosis/points_to";
    "diagnosis/anchor";
    "diagnosis/type_ranking";
    "diagnosis/patterns";
    "diagnosis/statistics";
  ]

let build_def_table m =
  let tbl = Hashtbl.create 256 in
  Lir.Irmod.iter_instrs m (fun _ _ i ->
      match Lir.Instr.defined_reg i with
      | Some r -> Hashtbl.replace tbl r.Lir.Value.rid i
      | None -> ());
  tbl

(* One-entry cache keyed by physical module identity: the fleet collector
   re-diagnoses the same bucket module repeatedly, and the def table is a
   pure function of the module, so rebuilding it per resolve_anchor call
   was wasted work.  Physical equality keeps a rebuilt (isomorphic but
   fresh) module from ever seeing another build's instruction objects.
   Domain-local so parallel sweeps and shard workers each memoize their
   own table instead of racing on a shared slot. *)
let def_table_cache :
    (Lir.Irmod.t * (int, Lir.Instr.t) Hashtbl.t) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let def_table m =
  let slot = Domain.DLS.get def_table_cache in
  match !slot with
  | Some (m', tbl) when m' == m -> tbl
  | Some _ | None ->
    let tbl = build_def_table m in
    slot := Some (m, tbl);
    tbl

(* RETracer-style provenance: follow the faulting pointer value back
   through geps/casts/arithmetic to the load that produced it — that load
   read the racing memory location. *)
let rec provenance defs (v : Lir.Value.t) =
  match v with
  | Lir.Value.Reg r -> (
    match Hashtbl.find_opt defs r.Lir.Value.rid with
    | None -> None
    | Some (def : Lir.Instr.t) -> (
      match def.Lir.Instr.kind with
      | Lir.Instr.Load _ -> Some def.Lir.Instr.iid
      | Lir.Instr.Gep { base; _ } -> provenance defs base
      | Lir.Instr.Index { base; _ } -> provenance defs base
      | Lir.Instr.Cast { src; _ } -> provenance defs src
      | Lir.Instr.Binop { lhs; _ } -> provenance defs lhs
      | _ -> None))
  | Lir.Value.Imm _ | Lir.Value.Global _ | Lir.Value.Null _
  | Lir.Value.Fn_ref _ ->
    None

(* Latest memory access the failing thread performed before the failure
   (the assert-style fallback). *)
let nearest_access m tp (r : Report.failing_report) ~reported =
  let best = ref None in
  Array.iter
    (fun (e : Tp.event) ->
      if
        e.Tp.tid = r.Report.failing_tid
        && Lir.Instr.is_memory_access (Lir.Irmod.instr_by_iid m e.Tp.iid)
      then
        match !best with
        | Some (b : Tp.event) when b.Tp.seq >= e.Tp.seq -> ()
        | Some _ | None -> best := Some e)
    tp.Tp.events;
  match !best with Some e -> e.Tp.iid | None -> reported

let resolve_anchor m tp (r : Report.failing_report) =
  let reported = Report.failing_anchor_iid r in
  match r.Report.info with
  | Report.Deadlock_info _ -> reported
  | Report.Crash_info { crash_kind; _ } -> (
    let i = Lir.Irmod.instr_by_iid m reported in
    match i.Lir.Instr.kind with
    | Lir.Instr.Load { ptr; _ } | Lir.Instr.Store { ptr; _ } -> (
      match crash_kind with
      | Report.Bad_pointer -> (
        match provenance (def_table m) ptr with
        | Some iid -> iid
        | None -> reported)
      | Report.Use_after_free | Report.Assertion -> reported)
    | _ -> nearest_access m tp r ~reported)

let tails_of m (r : Report.failing_report) =
  let pc_of iid = (Lir.Irmod.instr_by_iid m iid).Lir.Instr.pc in
  match r.Report.info with
  | Report.Crash_info { failing_iid; _ } ->
    [ (r.Report.failing_tid, pc_of failing_iid, r.Report.failure_time_ns) ]
  | Report.Deadlock_info { blocked } ->
    List.map
      (fun (tid, iid) -> (tid, pc_of iid, r.Report.failure_time_ns))
      blocked

let process_failing m ~config ?jobs ?cache (r : Report.failing_report) =
  Tp.process m ~config ~fail_tails:(tails_of m r) ?jobs ?cache r.Report.traces

let process_successful m ~config ?jobs ?cache (s : Report.success_report) =
  (* The successful trace was snapped at the watchpoint; replay the
     triggering thread up to the watched pc so the events right before it
     (branch-free code) participate in the statistics, exactly as the
     failing thread is replayed to the crash pc. *)
  Tp.process m ~config
    ~fail_tails:
      [ (s.Report.trigger_tid, s.Report.trigger_pc, s.Report.trigger_time_ns) ]
    ?jobs ?cache s.Report.s_traces

type derived = {
  points_to : Analysis.Pointsto.t;
  anchor_iid : int;
  candidates : Type_ranking.candidate list;
  patterns : Patterns.t list;
}

(* How each derivation step runs: the batch wraps it in its stage span,
   [derive] runs it bare. *)
type stage = { run : 'a. string -> (unit -> 'a) -> 'a }

let derive_in stage m ~executed ~(first : Report.failing_report) ~first_tp =
  (* Stage 3: hybrid points-to restricted to executed code. *)
  let points_to =
    stage.run "diagnosis/points_to" (fun () ->
        Analysis.Pointsto.analyze m ~scope:(fun iid -> Tp.Iset.mem iid executed))
  in
  (* Stage 4: resolve the memory-access anchor. *)
  let anchor_iid =
    stage.run "diagnosis/anchor" (fun () -> resolve_anchor m first_tp first)
  in
  (* Stage 5: candidates ranked by type. *)
  let candidates =
    stage.run "diagnosis/type_ranking" (fun () ->
        let prefer_free =
          match first.Report.info with
          | Report.Crash_info { crash_kind = Report.Use_after_free; _ } -> true
          | Report.Crash_info _ | Report.Deadlock_info _ -> false
        in
        Type_ranking.candidates m ~points_to ~executed ~anchor_iid ~prefer_free
          ())
  in
  (* Stage 6: bug patterns from the first failing trace. *)
  let patterns =
    stage.run "diagnosis/patterns" (fun () ->
        let info =
          match first.Report.info with
          | Report.Crash_info { crash_kind; _ } ->
            Report.Crash_info { failing_iid = anchor_iid; crash_kind }
          | Report.Deadlock_info _ as d -> d
        in
        Patterns.generate m ~points_to ~tp:first_tp ~info
          ~failing_tid:first.Report.failing_tid ~candidates)
  in
  { points_to; anchor_iid; candidates; patterns }

let derive m ~executed ~first ~first_tp =
  derive_in { run = (fun _ f -> f ()) } m ~executed ~first ~first_tp

let tally m d counts tp =
  List.iteri
    (fun i p ->
      if Patterns.present_in m ~points_to:d.points_to p tp then
        counts.(i) <- counts.(i) + 1)
    d.patterns

let rank d ~first_tp ~n_failing ~in_failing ~in_successful =
  Statistics.rank ~proximity_tp:first_tp
    (List.mapi
       (fun i p ->
         Statistics.of_counts p ~present_in_failing:in_failing.(i)
           ~present_in_successful:in_successful.(i) ~n_failing)
       d.patterns)

let diagnose ?jobs ?cache m ~config ~failing ~successful =
  let first =
    match failing with
    | [] -> invalid_arg "Diagnosis.diagnose: no failing report"
    | r :: _ -> r
  in
  (* Spans land in the ambient telemetry scope when one is enabled; a
     private collector otherwise, so the stage timings and the [spans]
     field of the result exist either way. *)
  let trace =
    match Obs.Scope.current () with
    | Some ctx -> ctx.Obs.Scope.trace
    | None -> Obs.Span.create ()
  in
  let recorded = ref [] in
  let stage name f =
    Obs.Span.with_span trace name (fun sp ->
        recorded := sp :: !recorded;
        f sp)
  in
  let set_count sp n = Obs.Span.set_arg sp "candidates" (Obs.Span.Int n) in
  stage "diagnosis" @@ fun root ->
  (* Stage 1: code layout (pc assignment; a no-op when already laid out). *)
  stage "diagnosis/layout" (fun sp ->
      Lir.Irmod.layout m;
      set_count sp (Lir.Irmod.instr_count m));
  (* Stage 2: trace processing (decode + replay) for every execution. *)
  let failing_tps, success_tps, executed =
    stage "diagnosis/trace_processing" (fun sp ->
        let failing_tps =
          List.map (process_failing m ~config ?jobs ?cache) failing
        in
        let success_tps =
          List.map (process_successful m ~config ?jobs ?cache) successful
        in
        let executed =
          List.fold_left
            (fun acc (tp : Tp.t) -> Tp.Iset.union acc tp.Tp.executed)
            Tp.Iset.empty (failing_tps @ success_tps)
        in
        set_count sp (Tp.Iset.cardinal executed);
        Obs.Span.set_arg sp "failing_runs"
          (Obs.Span.Int (List.length failing_tps));
        Obs.Span.set_arg sp "successful_runs"
          (Obs.Span.Int (List.length success_tps));
        (failing_tps, success_tps, executed))
  in
  let first_tp = List.hd failing_tps in
  (* Stages 3-6, each in its own span. *)
  let spanned = { run = (fun name f -> stage name (fun _ -> f ())) } in
  let d = derive_in spanned m ~executed ~first ~first_tp in
  let span name =
    List.find (fun (sp : Obs.Span.span) -> sp.Obs.Span.name = name) !recorded
  in
  (* Stage 7: statistical diagnosis over all runs. *)
  let scored, top =
    stage "diagnosis/statistics" (fun _ ->
        let n = List.length d.patterns in
        let in_failing = Array.make n 0 and in_successful = Array.make n 0 in
        List.iter (tally m d in_failing) failing_tps;
        List.iter (tally m d in_successful) success_tps;
        let scored =
          rank d ~first_tp ~n_failing:(List.length failing_tps) ~in_failing
            ~in_successful
        in
        (scored, Statistics.top scored))
  in
  let rank1 = Type_ranking.rank1_count d.candidates in
  let stage_counts =
    {
      total_instrs = Lir.Irmod.instr_count m;
      after_trace_processing = Tp.Iset.cardinal executed;
      after_points_to = List.length d.candidates;
      after_type_ranking =
        (if rank1 > 0 then rank1 else List.length d.candidates);
      after_patterns =
        List.length
          (List.sort_uniq compare
             (List.concat_map Patterns.ordered_iids d.patterns));
      after_statistics =
        (match top with
        | Some s -> List.length (Patterns.ordered_iids s.Statistics.pattern)
        | None -> 0);
    }
  in
  (* Funnel counts only known now; span args stay writable after finish. *)
  set_count (span "diagnosis/anchor") 1;
  Obs.Span.set_arg (span "diagnosis/anchor") "anchor_iid"
    (Obs.Span.Int d.anchor_iid);
  set_count (span "diagnosis/points_to") stage_counts.after_points_to;
  set_count (span "diagnosis/type_ranking") stage_counts.after_type_ranking;
  set_count (span "diagnosis/patterns") stage_counts.after_patterns;
  set_count (span "diagnosis/statistics") stage_counts.after_statistics;
  (* The legacy timing shim, derived from the spans (wall-clock seconds). *)
  let timings =
    {
      hybrid_analysis_s =
        Obs.Span.duration_ns (span "diagnosis/points_to") /. 1e9;
      pipeline_s = Obs.Span.elapsed_ns trace root /. 1e9;
    }
  in
  {
    scored;
    top;
    unique_top = Statistics.is_unique_top scored;
    stage_counts;
    timings;
    anchor_iid = d.anchor_iid;
    executed_count = Tp.Iset.cardinal executed;
    desynced =
      List.exists (fun (tp : Tp.t) -> tp.Tp.desynced_tids <> []) failing_tps;
    spans = List.rev !recorded;
  }
