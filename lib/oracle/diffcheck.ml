module Core = Snorlax_core
module Hb = Analysis.Hb
module Pool = Snorlax_util.Pool

type classification = Agree | Diagnosis_miss | Diagnosis_spurious | Oracle_only

let classification_name = function
  | Agree -> "agree"
  | Diagnosis_miss -> "diagnosis-miss"
  | Diagnosis_spurious -> "diagnosis-spurious"
  | Oracle_only -> "oracle-only"

type pair_check = {
  a_iid : int;
  b_iid : int;
  verdict : Hb.verdict;
}

type bug_result = {
  bug_id : string;
  bug_kind : string;
  classification : classification;
  oracle_races : int;
  oracle_events : int;
  anchor_iid : int;
  top_pattern : string option;
  checked : pair_check list;
  spurious : (int * int) list;
  missed : Hb.race list;
  extra_races : int;
  decoder_mismatches : int;
  wrapped_rings : int;
  notes : string list;
}

let diverged r =
  r.decoder_mismatches > 0
  ||
  match r.classification with
  | Agree -> false
  | Diagnosis_miss | Diagnosis_spurious | Oracle_only -> true

(* The instruction pairs a pattern asserts can interleave the wrong way.
   An order violation claims remote-vs-anchor; an atomicity violation
   claims the remote lands between the two local accesses, i.e. both the
   local-remote and remote-anchor pairs can flip.  Deadlock cycles claim
   lock-order facts, checked separately against [Hb.lock_edges]. *)
let claimed_pairs (p : Core.Patterns.t) =
  match p with
  | Core.Patterns.Order { remote_iid; anchor_iid; _ } ->
    [ (remote_iid, anchor_iid) ]
  | Core.Patterns.Atomicity { local_iid; remote_iid; anchor_iid; _ } ->
    [ (local_iid, remote_iid); (remote_iid, anchor_iid) ]
  | Core.Patterns.Deadlock_cycle _ -> []

let confirmed = function
  | Hb.Conflict { ordering = Hb.Racy; _ }
  | Hb.Conflict { ordering = Hb.Lock_ordered; _ } ->
    true
  | Hb.Conflict { ordering = Hb.Enforced; _ } | Hb.No_conflict -> false

let norm (a, b) = if a <= b then (a, b) else (b, a)

(* A two-thread lock cycle among the hold-while-acquiring facts: thread
   t1 held [la] wanting [lb] while some other thread held [lb] wanting
   [la].  The corpus deadlocks are all two-sided, which keeps the check
   honest without a full cycle search. *)
let witnesses_two_cycle edges =
  List.exists
    (fun (t1, la, _, lb, _) ->
      List.exists
        (fun (t2, lc, _, ld, _) -> t1 <> t2 && lc = lb && ld = la)
        edges)
    edges

(* Each deadlock side (hold_iid, attempt_iid) must be witnessed by a
   hold-while-acquiring fact from some thread, and the witnessing threads
   must not all coincide (a one-thread "cycle" is a relock, not a
   deadlock).  Returns (unwitnessed sides, notes). *)
let check_deadlock_sides edges sides =
  let witness (hold, attempt) =
    List.find_opt
      (fun (_, _, held_iid, _, wanted_iid) ->
        held_iid = hold && wanted_iid = attempt)
      edges
  in
  let bad = ref [] and notes = ref [] and tids = ref [] in
  List.iter
    (fun side ->
      match witness side with
      | Some (tid, held_lock, _, wanted_lock, _) ->
        tids := tid :: !tids;
        notes :=
          Printf.sprintf
            "side (hold iid %d, want iid %d) witnessed: thread %d held \
             lock 0x%x wanting 0x%x"
            (fst side) (snd side) tid held_lock wanted_lock
          :: !notes
      | None -> bad := side :: !bad)
    sides;
  let distinct_tids = List.sort_uniq compare !tids in
  let notes =
    if !bad = [] && List.length distinct_tids < 2 then
      "all deadlock sides witnessed by one thread (relock, not a cycle)"
      :: !notes
    else !notes
  in
  let bad =
    if !bad = [] && List.length distinct_tids < 2 then sides else List.rev !bad
  in
  (bad, List.rev notes)

let classify ~(res : Core.Diagnosis.result) ~engine ~races ~bug_kind =
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let top = Option.map (fun s -> s.Core.Statistics.pattern) res.Core.Diagnosis.top in
  let checked, spurious =
    match top with
    | None -> ([], [])
    | Some (Core.Patterns.Deadlock_cycle { sides }) ->
      let edges = Hb.lock_edges engine in
      let bad, dnotes = check_deadlock_sides edges sides in
      List.iter (fun s -> notes := s :: !notes) dnotes;
      ([], bad)
    | Some p ->
      let checks =
        List.map
          (fun (a, b) ->
            { a_iid = a; b_iid = b; verdict = Hb.pair_verdict engine a b })
          (claimed_pairs p)
      in
      let bad =
        List.filter_map
          (fun c ->
            if confirmed c.verdict then None else Some (c.a_iid, c.b_iid))
          checks
      in
      (checks, bad)
  in
  let anchor = res.Core.Diagnosis.anchor_iid in
  let anchor_races =
    List.filter (fun (r : Hb.race) -> r.a_iid = anchor || r.b_iid = anchor) races
  in
  let covered_races =
    match top with
    | None | Some (Core.Patterns.Deadlock_cycle _) -> []
    | Some p ->
      let claimed = List.map norm (claimed_pairs p) in
      List.filter
        (fun (r : Hb.race) -> List.mem (norm (r.a_iid, r.b_iid)) claimed)
        anchor_races
  in
  let missed =
    match top with
    | None | Some (Core.Patterns.Deadlock_cycle _) -> []
    | Some _ -> if covered_races = [] then anchor_races else []
  in
  let extra_races = List.length races - List.length anchor_races in
  let classification =
    match top with
    | None ->
      if races <> [] then begin
        note "pipeline produced no pattern but the oracle saw %d racy pair(s)"
          (List.length races);
        Oracle_only
      end
      else if
        bug_kind = Corpus.Bug.Deadlock
        && witnesses_two_cycle (Hb.lock_edges engine)
      then begin
        note "pipeline produced no pattern but the oracle saw a lock cycle";
        Oracle_only
      end
      else begin
        note "no top pattern and no oracle findings";
        Agree
      end
    | Some _ ->
      if spurious <> [] then Diagnosis_spurious
      else if missed <> [] then Diagnosis_miss
      else Agree
  in
  (classification, checked, spurious, missed, extra_races, List.rev !notes)

(* 128 B rings with a PSB every 32 B wrap on about a third of the
   corpus's failing-seed threads, whose decodes then start at a
   mid-stream sync point. *)
let small_ring =
  { Pt.Config.default with Pt.Config.buffer_size = 128; psb_period_bytes = 32 }

(* Replay [seed] with an {!Executed} recorder (plus [hooks]), snapshot
   its rings the way the report was made — at the watchpoint hit, else
   at the failure with the report's tail stops, else at the end — and
   judge each ring's decode against the path its thread ran.  Returns
   the run's result, its rings, and one note per disagreement plus one
   when the rings are not the collected report's ([expect]). *)
let replay_judge ~what (c : Corpus.Runner.collected) ~entry ~seed
    ?(config = Pt.Config.default) ?(watch_pcs = []) ?(hooks = Sim.Hooks.none)
    ?expect () =
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let executed = Executed.create () in
  let r =
    Corpus.Runner.run_traced ~built:c.Corpus.Runner.built ~entry ~seed
      ~pt_config:config ~watch_pcs
      ~extra_hooks:(Sim.Hooks.combine hooks (Executed.hooks executed)) ()
  in
  let result = r.Corpus.Runner.result in
  let driver = r.Corpus.Runner.driver in
  let at t = (Pt.Driver.snapshot_now driver ~at_time_ns:t).Pt.Driver.traces in
  let traces, tails =
    match Pt.Driver.watch_snapshot driver, result.Sim.Interp.outcome with
    | Some s, _ ->
      ( s.Pt.Driver.traces,
        [
          ( Option.get s.Pt.Driver.trigger_tid,
            Option.get s.Pt.Driver.trigger_pc,
            int_of_float s.Pt.Driver.at_time_ns );
        ] )
    | None, Sim.Interp.Failed { failure; time_ns } ->
      let traces = at time_ns in
      ( traces,
        Core.Diagnosis.tails_of m
          (Core.Report.of_sim_failure failure ~time_ns ~traces) )
    | None, _ -> (at result.Sim.Interp.final_time_ns, [])
  in
  let note e = Printf.sprintf "decode mismatch (%s): %s" what e in
  let judge (tid, ring) =
    let tail_stop =
      List.find_map
        (fun (t, pc, ns) -> if t = tid then Some (pc, ns) else None)
        tails
    in
    let d = Pt.Decoder.decode_raw m ~config ?tail_stop ring in
    Result.fold ~ok:(fun () -> None) ~error:(fun e -> Some (note e))
      (Executed.check executed ~tid ?tail_stop d)
  in
  ( result,
    traces,
    (if Option.fold ~none:false ~some:(( <> ) traces) expect then
       [ note "replayed rings differ from the report's" ]
     else [])
    @ List.filter_map judge traces )

let check_bug ?jobs ?cache (bug : Corpus.Bug.t) =
  match Corpus.Runner.collect bug () with
  | Error e -> Error e
  | Ok c ->
    let m = c.Corpus.Runner.built.Corpus.Bug.m in
    let entry = bug.Corpus.Bug.entry in
    let res =
      Core.Diagnosis.diagnose ?jobs ?cache m ~config:Pt.Config.default
        ~failing:c.Corpus.Runner.failing ~successful:c.Corpus.Runner.successful
    in
    (* Replay the first failing seed with the oracle attached.  [collect]
       ran that seed with no watchpoints and the default PT config; the
       observers cost zero virtual time, so the same seed re-takes the
       identical interleaving the diagnosis decoded. *)
    let seed, first =
      match c.Corpus.Runner.failing_seeds, c.Corpus.Runner.failing with
      | s :: _, r :: _ -> (s, r)
      | _ -> invalid_arg "Diffcheck.check_bug: no failing seed"
    in
    let engine = Hb.create () in
    let replay, _, failing_notes =
      replay_judge ~what:"failing" c ~entry ~seed ~hooks:(Observe.hooks engine)
        ~expect:first.Core.Report.traces ()
    in
    let replay_notes =
      match replay.Sim.Interp.outcome with
      | Sim.Interp.Failed _ | Sim.Interp.Stuck -> []
      | Sim.Interp.Completed | Sim.Interp.Fuel_exhausted ->
        [ "WARNING: oracle replay did not reproduce the failure" ]
    in
    let races = Hb.races engine in
    let classification, checked, spurious, missed, extra_races, notes =
      classify ~res ~engine ~races ~bug_kind:bug.Corpus.Bug.kind
    in
    (* The decoder against the execution: besides the failing replay,
       each successful report replayed at its seed, and the failing seed
       once more under small wrapping rings. *)
    let watch_pcs = Corpus.Runner.watch_pcs_for m first in
    let success_notes =
      List.concat
        (List.map2
           (fun seed (s : Core.Report.success_report) ->
             let _, _, notes =
               replay_judge ~what:"success" c ~entry ~seed ~watch_pcs
                 ~expect:s.Core.Report.s_traces ()
             in
             notes)
           c.Corpus.Runner.success_seeds c.Corpus.Runner.successful)
    in
    let _, small_traces, small_notes =
      replay_judge ~what:"small ring" c ~entry ~seed ~config:small_ring ()
    in
    let decode_notes = failing_notes @ success_notes @ small_notes in
    let r =
      {
        bug_id = bug.Corpus.Bug.id;
        bug_kind = Corpus.Bug.kind_name bug.Corpus.Bug.kind;
        classification;
        oracle_races = List.length races;
        oracle_events = Hb.event_count engine;
        anchor_iid = res.Core.Diagnosis.anchor_iid;
        top_pattern =
          Option.map
            (fun s -> Core.Patterns.id s.Core.Statistics.pattern)
            res.Core.Diagnosis.top;
        checked;
        spurious;
        missed;
        extra_races;
        decoder_mismatches = List.length decode_notes;
        wrapped_rings =
          List.length
            (List.filter
               (fun (_, ring) -> Bytes.length ring >= small_ring.buffer_size)
               small_traces);
        notes = replay_notes @ notes @ decode_notes;
      }
    in
    Obs.Scope.count "oracle/races" r.oracle_races;
    Obs.Scope.count (if diverged r then "oracle/diverge" else "oracle/agree") 1;
    Ok r

(* The registry-wide sweep, one bug per lane.  The only state lanes
   share is the decode cache, which is lock-striped. *)
let check_all ?jobs ?(sweep_jobs = 1) ?cache bugs =
  let jobs =
    if Pool.lanes ~jobs:sweep_jobs (List.length bugs) > 1 then Some 1 else jobs
  in
  Obs.Scope.sweep ~jobs:sweep_jobs
    (fun (b : Corpus.Bug.t) -> (b.Corpus.Bug.id, check_bug ?jobs ?cache b))
    bugs

let ordering_name = function
  | Hb.Racy -> "racy"
  | Hb.Lock_ordered -> "lock-ordered"
  | Hb.Enforced -> "enforced"

let verdict_json = function
  | Hb.No_conflict -> Obs.Json.String "no-conflict"
  | Hb.Conflict { ordering; path } ->
    Obs.Json.Obj
      [
        ("ordering", Obs.Json.String (ordering_name ordering));
        ("path", Obs.Json.List (List.map (fun s -> Obs.Json.String s) path));
      ]

let result_json (r : bug_result) =
  Obs.Json.Obj
    [
      ("classification", Obs.Json.String (classification_name r.classification));
      ("kind", Obs.Json.String r.bug_kind);
      ("oracle_races", Obs.Json.Int r.oracle_races);
      ("oracle_events", Obs.Json.Int r.oracle_events);
      ("anchor_iid", Obs.Json.Int r.anchor_iid);
      ( "top_pattern",
        match r.top_pattern with
        | None -> Obs.Json.Null
        | Some id -> Obs.Json.String id );
      ( "checked_pairs",
        Obs.Json.List
          (List.map
             (fun c ->
               Obs.Json.Obj
                 [
                   ("a_iid", Obs.Json.Int c.a_iid);
                   ("b_iid", Obs.Json.Int c.b_iid);
                   ("verdict", verdict_json c.verdict);
                 ])
             r.checked) );
      ( "spurious",
        Obs.Json.List
          (List.map
             (fun (a, b) -> Obs.Json.List [ Obs.Json.Int a; Obs.Json.Int b ])
             r.spurious) );
      ( "missed",
        Obs.Json.List
          (List.map
             (fun (m : Hb.race) ->
               Obs.Json.List [ Obs.Json.Int m.a_iid; Obs.Json.Int m.b_iid ])
             r.missed) );
      ("extra_races", Obs.Json.Int r.extra_races);
      ("decoder_mismatches", Obs.Json.Int r.decoder_mismatches);
      ("wrapped_rings", Obs.Json.Int r.wrapped_rings);
      ("notes", Obs.Json.List (List.map (fun s -> Obs.Json.String s) r.notes));
    ]

let to_json results =
  let count p =
    List.length
      (List.filter (fun (_, r) -> match r with Ok r -> p r | Error _ -> false)
         results)
  in
  let errors =
    List.length
      (List.filter (fun (_, r) -> Result.is_error r) results)
  in
  Obs.Json.Obj
    [
      ( "summary",
        Obs.Json.Obj
          [
            ("bugs", Obs.Json.Int (List.length results));
            ("agree", Obs.Json.Int (count (fun r -> r.classification = Agree)));
            ( "diagnosis_miss",
              Obs.Json.Int (count (fun r -> r.classification = Diagnosis_miss)) );
            ( "diagnosis_spurious",
              Obs.Json.Int
                (count (fun r -> r.classification = Diagnosis_spurious)) );
            ( "oracle_only",
              Obs.Json.Int (count (fun r -> r.classification = Oracle_only)) );
            ("reproduce_errors", Obs.Json.Int errors);
          ] );
      ( "bugs",
        Obs.Json.Obj
          (List.map
             (fun (id, r) ->
               match r with
               | Ok r -> (id, result_json r)
               | Error e ->
                 (id, Obs.Json.Obj [ ("error", Obs.Json.String e) ]))
             results) );
    ]
