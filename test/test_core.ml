(* Tests for the Lazy Diagnosis pipeline stages: trace processing, type
   ranking, pattern generation and presence, statistical scoring, anchor
   resolution and the accuracy metrics. *)

module Core = Snorlax_core
module Tp = Core.Trace_processing
module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty

(* --- synthetic trace-processing values ---------------------------------- *)

(* Build a Tp.t directly from an event list (tid, seq, iid, t_lo, t_hi). *)
let tp_of_events events =
  let by_iid_l = Hashtbl.create 16 in
  List.iter
    (fun (tid, seq, iid, t_lo, t_hi) ->
      let e = { Tp.tid; seq; iid; pc = iid * 4; t_lo; t_hi = Some t_hi } in
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_iid_l iid) in
      Hashtbl.replace by_iid_l iid (cur @ [ e ]))
    events;
  let by_iid = Hashtbl.create 16 in
  Hashtbl.iter (fun iid l -> Hashtbl.add by_iid iid (Array.of_list l)) by_iid_l;
  let executed =
    List.fold_left
      (fun acc (_, _, iid, _, _) -> Tp.Iset.add iid acc)
      Tp.Iset.empty events
  in
  {
    Tp.executed;
    events =
      Array.of_list
        (List.map
           (fun (tid, seq, iid, t_lo, t_hi) ->
             { Tp.tid; seq; iid; pc = iid * 4; t_lo; t_hi = Some t_hi })
           events);
    events_by_iid = by_iid;
    lost_bytes = 0;
    desynced_tids = [];
  }

let ev tid seq iid t_lo t_hi = (tid, seq, iid, t_lo, t_hi)

let test_executes_before_cross_thread () =
  let tp = tp_of_events [ ev 1 0 10 100 110; ev 2 0 20 200 210 ] in
  let a = List.hd (Tp.instances tp ~iid:10) in
  let b = List.hd (Tp.instances tp ~iid:20) in
  Alcotest.(check bool) "disjoint intervals order" true (Tp.executes_before a b);
  Alcotest.(check bool) "not backwards" false (Tp.executes_before b a)

let test_executes_before_overlap_unordered () =
  let tp = tp_of_events [ ev 1 0 10 100 250; ev 2 0 20 200 300 ] in
  let a = List.hd (Tp.instances tp ~iid:10) in
  let b = List.hd (Tp.instances tp ~iid:20) in
  Alcotest.(check bool) "overlap is unordered ab" false (Tp.executes_before a b);
  Alcotest.(check bool) "overlap is unordered ba" false (Tp.executes_before b a)

let test_executes_before_same_thread_program_order () =
  (* Same thread: sequence numbers order events even with overlapping
     time intervals. *)
  let tp = tp_of_events [ ev 1 0 10 100 400; ev 1 1 20 100 400 ] in
  let a = List.hd (Tp.instances tp ~iid:10) in
  let b = List.hd (Tp.instances tp ~iid:20) in
  Alcotest.(check bool) "program order holds" true (Tp.executes_before a b)

(* --- pattern presence on synthetic traces -------------------------------- *)

let order_pattern =
  Core.Patterns.Order
    { remote_iid = 1; anchor_iid = 2; shape = Core.Patterns.WR }

(* present_in needs a module+points_to only for deadlocks; give it a tiny
   dummy module. *)
let dummy_pta =
  let m = Lir.Irmod.create "dummy" in
  B.define m "main" ~params:[] ~ret:T.Void (fun b -> B.ret_void b);
  Lir.Irmod.layout m;
  (m, Analysis.Pointsto.analyze_all m)

let present p tp =
  let m, pta = dummy_pta in
  Core.Patterns.present_in m ~points_to:pta p tp

let test_order_present () =
  let tp = tp_of_events [ ev 1 0 1 100 110; ev 2 0 2 200 210 ] in
  Alcotest.(check bool) "W before R across threads" true (present order_pattern tp)

let test_order_absent_when_reversed () =
  let tp = tp_of_events [ ev 2 0 2 100 110; ev 1 0 1 200 210 ] in
  Alcotest.(check bool) "R before W is not the pattern" false
    (present order_pattern tp)

let test_order_absent_same_thread () =
  let tp = tp_of_events [ ev 1 0 1 100 110; ev 1 1 2 200 210 ] in
  Alcotest.(check bool) "same thread does not race" false
    (present order_pattern tp)

let atomicity_pattern ~guards =
  Core.Patterns.Atomicity
    {
      local_iid = 1;
      remote_iid = 2;
      anchor_iid = 3;
      shape = Core.Patterns.RWR;
      guard_writes = guards;
    }

let test_atomicity_present () =
  let tp =
    tp_of_events
      [ ev 1 0 1 100 110; ev 2 0 2 200 210; ev 1 1 3 300 310 ]
  in
  Alcotest.(check bool) "sandwich detected" true
    (present (atomicity_pattern ~guards:[]) tp)

let test_atomicity_absent_remote_outside () =
  let tp =
    tp_of_events
      [ ev 2 0 2 50 60; ev 1 0 1 100 110; ev 1 1 3 300 310 ]
  in
  Alcotest.(check bool) "remote before both locals" false
    (present (atomicity_pattern ~guards:[]) tp)

let test_atomicity_adjacency_required () =
  (* A second local instance of the anchor between l and a breaks
     adjacency. *)
  let tp =
    tp_of_events
      [
        ev 1 0 1 100 110;
        ev 2 0 2 200 210;
        ev 1 1 3 250 260;
        ev 1 2 3 300 310;
      ]
  in
  (* Pair (l=seq0, a=seq2) is not adjacent (a at seq1 lies between), but
     pair (l=seq0, a=seq1) IS sandwiched: presence still holds. *)
  Alcotest.(check bool) "adjacent pair found" true
    (present (atomicity_pattern ~guards:[]) tp);
  (* Now move the remote write after the first anchor: only the
     non-adjacent pair would qualify, so presence must fail. *)
  let tp2 =
    tp_of_events
      [
        ev 1 0 1 100 110;
        ev 1 1 3 150 160;
        ev 2 0 2 200 210;
        ev 1 2 3 300 310;
      ]
  in
  Alcotest.(check bool) "non-adjacent pair rejected" false
    (present (atomicity_pattern ~guards:[]) tp2)

let test_atomicity_guard_write () =
  (* A guarded write between the remote write and the anchor means the
     anchor did not observe the remote value. *)
  let tp =
    tp_of_events
      [
        ev 1 0 1 100 110;
        ev 2 0 2 200 210;
        ev 2 1 9 250 260;
        (* guard write overwrites *)
        ev 1 1 3 300 310;
      ]
  in
  Alcotest.(check bool) "clobbered remote does not count" false
    (present (atomicity_pattern ~guards:[ 9 ]) tp);
  Alcotest.(check bool) "without guard it would" true
    (present (atomicity_pattern ~guards:[]) tp)

(* The other unserializable shapes of Figure 1(c) are detected too. *)
let shape_pattern shape =
  Core.Patterns.Atomicity
    { local_iid = 1; remote_iid = 2; anchor_iid = 3; shape; guard_writes = [] }

let test_all_atomicity_shapes_present () =
  (* Shapes only differ by access classification, which generation fixes;
     presence uses the same interleaving predicate, so one sandwiched
     trace exhibits all four. *)
  let tp =
    tp_of_events [ ev 1 0 1 100 110; ev 2 0 2 200 210; ev 1 1 3 300 310 ]
  in
  List.iter
    (fun shape ->
      Alcotest.(check bool) "shape present" true (present (shape_pattern shape) tp))
    [ Core.Patterns.RWR; Core.Patterns.WWR; Core.Patterns.RWW; Core.Patterns.WRW ]

(* --- deadlock pattern presence ------------------------------------------- *)

(* A module with two global locks and the four lock/unlock call sites the
   pattern references; events are then synthesized over those real iids so
   the alias-aware hold-tracking has something to chew on. *)
let deadlock_fixture () =
  let m = Lir.Irmod.create "dl" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "la" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "lb" (T.Struct "Mutex");
  let ids = Hashtbl.create 8 in
  B.define m "w1" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.mutex_lock b (V.Global "la");
      Hashtbl.replace ids "hold_a" (B.last_iid b);
      B.mutex_lock b (V.Global "lb");
      Hashtbl.replace ids "attempt_b" (B.last_iid b);
      B.mutex_unlock b (V.Global "lb");
      Hashtbl.replace ids "unlock_b" (B.last_iid b);
      B.mutex_unlock b (V.Global "la");
      Hashtbl.replace ids "unlock_a" (B.last_iid b);
      B.ret_void b);
  B.define m "w2" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.mutex_lock b (V.Global "lb");
      Hashtbl.replace ids "hold_b" (B.last_iid b);
      B.mutex_lock b (V.Global "la");
      Hashtbl.replace ids "attempt_a" (B.last_iid b);
      B.mutex_unlock b (V.Global "la");
      B.mutex_unlock b (V.Global "lb");
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b -> B.ret_void b);
  Lir.Irmod.layout m;
  let pta = Analysis.Pointsto.analyze_all m in
  (m, pta, fun name -> Hashtbl.find ids name)

let test_deadlock_presence_crossed () =
  let m, pta, id = deadlock_fixture () in
  let pattern =
    Core.Patterns.Deadlock_cycle
      { sides = [ (id "hold_a", id "attempt_b"); (id "hold_b", id "attempt_a") ] }
  in
  (* Crossed holding: both holds precede the other's attempt. *)
  let crossed =
    tp_of_events
      [
        ev 1 0 (id "hold_a") 100 101;
        ev 2 0 (id "hold_b") 150 151;
        ev 1 1 (id "attempt_b") 300 301;
        ev 2 1 (id "attempt_a") 320 321;
      ]
  in
  Alcotest.(check bool) "crossed order present" true
    (Core.Patterns.present_in m ~points_to:pta pattern crossed);
  (* Serialized: w1 finished (released) before w2 started. *)
  let serialized =
    tp_of_events
      [
        ev 1 0 (id "hold_a") 100 101;
        ev 1 1 (id "attempt_b") 120 121;
        ev 1 2 (id "unlock_b") 140 141;
        ev 1 3 (id "unlock_a") 160 161;
        ev 2 0 (id "hold_b") 400 401;
        ev 2 1 (id "attempt_a") 420 421;
      ]
  in
  Alcotest.(check bool) "serialized order absent" false
    (Core.Patterns.present_in m ~points_to:pta pattern serialized)

let test_deadlock_presence_needs_distinct_threads () =
  let m, pta, id = deadlock_fixture () in
  let pattern =
    Core.Patterns.Deadlock_cycle
      { sides = [ (id "hold_a", id "attempt_b"); (id "hold_b", id "attempt_a") ] }
  in
  let same_thread =
    tp_of_events
      [
        ev 1 0 (id "hold_a") 100 101;
        ev 1 1 (id "hold_b") 150 151;
        ev 1 2 (id "attempt_b") 300 301;
        ev 1 3 (id "attempt_a") 320 321;
      ]
  in
  Alcotest.(check bool) "one thread cannot deadlock with itself" false
    (Core.Patterns.present_in m ~points_to:pta pattern same_thread)

(* --- statistics ---------------------------------------------------------- *)

(* Stage 7 as the batch pipeline runs it: tally every trace, then rank
   with the first failing trace (an empty one when there is none) as the
   proximity tie-breaker. *)
let score patterns ~failing ~successful =
  let m, pta = dummy_pta in
  let d =
    { Core.Diagnosis.points_to = pta; anchor_iid = 0; candidates = []; patterns }
  in
  let n = List.length patterns in
  let in_failing = Array.make n 0 and in_successful = Array.make n 0 in
  List.iter (Core.Diagnosis.tally m d in_failing) failing;
  List.iter (Core.Diagnosis.tally m d in_successful) successful;
  let first_tp = match failing with tp :: _ -> tp | [] -> tp_of_events [] in
  Core.Diagnosis.rank d ~first_tp ~n_failing:(List.length failing) ~in_failing
    ~in_successful

let test_f1_scoring () =
  let failing = [ tp_of_events [ ev 1 0 1 100 110; ev 2 0 2 200 210 ] ] in
  let successful =
    [
      tp_of_events [ ev 2 0 2 100 110; ev 1 0 1 200 210 ];
      tp_of_events [ ev 2 0 2 100 110 ];
    ]
  in
  let scored = score [ order_pattern ] ~failing ~successful in
  match scored with
  | [ s ] ->
    Alcotest.(check (float 1e-9)) "perfect F1" 1.0 s.Core.Statistics.f1;
    Alcotest.(check int) "in failing" 1 s.Core.Statistics.present_in_failing;
    Alcotest.(check int) "not in successful" 0
      s.Core.Statistics.present_in_successful
  | _ -> Alcotest.fail "expected one scored pattern"

let test_f1_tie_break_prefers_order () =
  let failing =
    [ tp_of_events [ ev 1 0 1 100 110; ev 2 0 2 200 210; ev 1 1 3 300 310 ] ]
  in
  let patterns =
    [
      atomicity_pattern ~guards:[];
      Core.Patterns.Order
        { remote_iid = 2; anchor_iid = 3; shape = Core.Patterns.WR };
    ]
  in
  let scored = score patterns ~failing ~successful:[] in
  (match Core.Statistics.top scored with
  | Some top -> (
    match top.Core.Statistics.pattern with
    | Core.Patterns.Order _ -> ()
    | _ -> Alcotest.fail "order should win the tie")
  | None -> Alcotest.fail "no top");
  Alcotest.(check bool) "reported as tie" false (Core.Statistics.is_unique_top scored)

(* Degenerate populations: no failing runs, no patterns, no traces at
   all.  Scoring must stay total — 0s and [] — never raise or emit NaN. *)
let test_scoring_degenerate_inputs () =
  let no_failing =
    score [ order_pattern ] ~failing:[]
      ~successful:[ tp_of_events [ ev 1 0 1 100 110 ] ]
  in
  (match no_failing with
  | [ s ] ->
    Alcotest.(check (float 1e-9)) "zero failing -> f1 0" 0.0
      s.Core.Statistics.f1;
    Alcotest.(check bool) "f1 is a number" false
      (Float.is_nan s.Core.Statistics.f1)
  | _ -> Alcotest.fail "expected one scored pattern");
  Alcotest.(check bool) "no patterns -> empty" true
    (score [] ~failing:[] ~successful:[] = []);
  Alcotest.(check bool) "top of empty" true
    (Core.Statistics.top [] = None);
  Alcotest.(check bool) "empty list is trivially unique" true
    (Core.Statistics.is_unique_top [])

(* All-identical F1 scores: the winner must be the proximate cause (the
   remote access that executed last before the failure), not whichever
   pattern the generator happened to emit first. *)
let test_tie_break_prefers_proximate_remote () =
  let failing =
    [
      tp_of_events
        [ ev 2 0 2 100 110; ev 2 1 4 150 160; ev 1 0 3 300 310 ];
    ]
  in
  let early =
    Core.Patterns.Order { remote_iid = 2; anchor_iid = 3; shape = Core.Patterns.WR }
  and late =
    Core.Patterns.Order { remote_iid = 4; anchor_iid = 3; shape = Core.Patterns.WR }
  in
  List.iter
    (fun patterns ->
      let scored = score patterns ~failing ~successful:[] in
      Alcotest.(check bool) "scores tie" false
        (Core.Statistics.is_unique_top scored);
      match Core.Statistics.top scored with
      | Some t ->
        Alcotest.(check string) "latest remote wins regardless of order"
          (Core.Patterns.id late)
          (Core.Patterns.id t.Core.Statistics.pattern)
      | None -> Alcotest.fail "no top")
    [ [ early; late ]; [ late; early ] ]

(* --- pattern metadata ---------------------------------------------------- *)

let test_pattern_ids_stable () =
  Alcotest.(check string) "order id" "order:WR:1->2" (Core.Patterns.id order_pattern);
  Alcotest.(check string) "atomicity id" "atom:RWR:1,2,3"
    (Core.Patterns.id (atomicity_pattern ~guards:[ 7 ]));
  Alcotest.(check string) "deadlock id" "deadlock:1,2|3,4"
    (Core.Patterns.id (Core.Patterns.Deadlock_cycle { sides = [ (1, 2); (3, 4) ] }))

let test_ordered_iids () =
  Alcotest.(check (list int)) "order" [ 1; 2 ]
    (Core.Patterns.ordered_iids order_pattern);
  Alcotest.(check (list int)) "atomicity" [ 1; 2; 3 ]
    (Core.Patterns.ordered_iids (atomicity_pattern ~guards:[]));
  Alcotest.(check (list int)) "deadlock" [ 1; 2; 3; 4 ]
    (Core.Patterns.ordered_iids
       (Core.Patterns.Deadlock_cycle { sides = [ (1, 2); (3, 4) ] }))

(* --- accuracy ------------------------------------------------------------ *)

let test_accuracy_metrics () =
  Alcotest.(check bool) "set match" true
    (Core.Accuracy.root_cause_match ~diagnosed:order_pattern ~ground_truth:[ 1; 2 ]);
  Alcotest.(check bool) "set mismatch" false
    (Core.Accuracy.root_cause_match ~diagnosed:order_pattern ~ground_truth:[ 1; 9 ]);
  Alcotest.(check (float 1e-6)) "perfect order" 100.0
    (Core.Accuracy.ordering_accuracy ~diagnosed:order_pattern ~ground_truth:[ 1; 2 ]);
  Alcotest.(check (float 1e-6)) "reversed order" 0.0
    (Core.Accuracy.ordering_accuracy ~diagnosed:order_pattern ~ground_truth:[ 2; 1 ])

(* --- anchor resolution --------------------------------------------------- *)

let test_anchor_provenance () =
  (* Crash on a field load whose pointer came from a load of a global:
     the anchor must be the provenance load. *)
  let m = Lir.Irmod.create "t" in
  ignore (Lir.Irmod.declare_struct m "Box" [ T.I64 ]);
  Lir.Irmod.declare_global m "box" (T.Ptr (T.Struct "Box"));
  let prov = ref (-1) in
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let p = B.load b (V.Global "box") in
      prov := B.last_iid b;
      let v = B.load b (B.gep b p 0) in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  Lir.Verify.check_exn m;
  Lir.Irmod.layout m;
  let driver = Pt.Driver.create () in
  let config =
    { Sim.Interp.default_config with hooks = Pt.Driver.hooks driver }
  in
  let result = Sim.Interp.run ~config m ~entry:"main" in
  match result.Sim.Interp.outcome with
  | Sim.Interp.Failed { failure; time_ns } ->
    let snap = Pt.Driver.snapshot_now driver ~at_time_ns:time_ns in
    let report =
      Core.Report.of_sim_failure failure ~time_ns ~traces:snap.Pt.Driver.traces
    in
    let tp = Core.Diagnosis.process_failing m ~config:Pt.Config.default report in
    Alcotest.(check int) "anchor is the provenance load" !prov
      (Core.Diagnosis.resolve_anchor m tp report)
  | _ -> Alcotest.fail "expected crash"

let test_report_kinds () =
  let crash =
    Core.Report.of_sim_failure
      (Sim.Failure.Crash
         { tid = 1; iid = 5; pc = 0x20; reason = Sim.Failure.Null_deref; addr = 0 })
      ~time_ns:123.0 ~traces:[]
  in
  (match crash.Core.Report.info with
  | Core.Report.Crash_info { failing_iid; crash_kind = Core.Report.Bad_pointer } ->
    Alcotest.(check int) "iid carried" 5 failing_iid
  | _ -> Alcotest.fail "expected bad-pointer crash info");
  let dl =
    Core.Report.of_sim_failure
      (Sim.Failure.Deadlock { waiters = [ (1, 7, 0x10); (2, 9, 0x20) ] })
      ~time_ns:5.0 ~traces:[]
  in
  Alcotest.(check int) "deadlock anchor is cycle closer" 9
    (Core.Report.failing_anchor_iid dl)

(* --- parallel decode determinism & cache correctness --------------------- *)

(* The perf paths (domain pool, memo cache) must be invisible in the
   output: any pool size and any cache state has to produce the exact
   Tp.t the sequential, uncached code produces. *)

let tp_equal (a : Tp.t) (b : Tp.t) =
  Tp.Iset.equal a.Tp.executed b.Tp.executed
  && a.Tp.events = b.Tp.events
  && a.Tp.lost_bytes = b.Tp.lost_bytes
  && a.Tp.desynced_tids = b.Tp.desynced_tids
  && Hashtbl.length a.Tp.events_by_iid = Hashtbl.length b.Tp.events_by_iid
  && Hashtbl.fold
       (fun iid evs acc ->
         acc && Hashtbl.find_opt b.Tp.events_by_iid iid = Some evs)
       a.Tp.events_by_iid true

let corpus_reports =
  lazy
    (List.concat_map
       (fun bug ->
         let e = Experiments.Eval_runs.get bug in
         let c = e.Experiments.Eval_runs.collected in
         let m = c.Corpus.Runner.built.Corpus.Bug.m in
         let keep n l = List.filteri (fun i _ -> i < n) l in
         List.map
           (fun r -> (bug.Corpus.Bug.id, m, `Failing r))
           (keep 2 c.Corpus.Runner.failing)
         @ List.map
             (fun s -> (bug.Corpus.Bug.id, m, `Success s))
             (keep 2 c.Corpus.Runner.successful))
       (List.filteri (fun i _ -> i < 3) Corpus.Registry.eval_set))

let process_report ~jobs ~cache m report =
  match report with
  | `Failing r ->
    Core.Diagnosis.process_failing ~jobs ~cache m ~config:Pt.Config.default r
  | `Success s ->
    Core.Diagnosis.process_successful ~jobs ~cache m ~config:Pt.Config.default
      s

let test_parallel_decode_deterministic () =
  List.iter
    (fun (id, m, report) ->
      let no_cache = Pt.Decode_cache.create ~capacity:0 () in
      let base = process_report ~jobs:1 ~cache:no_cache m report in
      List.iter
        (fun jobs ->
          let tp = process_report ~jobs ~cache:no_cache m report in
          Alcotest.(check bool)
            (Printf.sprintf "%s: jobs=%d equals sequential" id jobs)
            true (tp_equal base tp))
        [ 2; 4 ])
    (Lazy.force corpus_reports)

let test_cached_decode_deterministic () =
  List.iter
    (fun (id, m, report) ->
      let no_cache = Pt.Decode_cache.create ~capacity:0 () in
      let base = process_report ~jobs:1 ~cache:no_cache m report in
      let cache = Pt.Decode_cache.create ~capacity:64 () in
      let cold = process_report ~jobs:1 ~cache m report in
      let warm = process_report ~jobs:1 ~cache m report in
      (* A warm parallel run exercises both perf paths at once. *)
      let warm_par = process_report ~jobs:4 ~cache m report in
      Alcotest.(check bool)
        (Printf.sprintf "%s: cold cached equals uncached" id)
        true (tp_equal base cold);
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm equals cold" id)
        true (tp_equal cold warm);
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm parallel equals cold" id)
        true (tp_equal cold warm_par);
      let s = Pt.Decode_cache.stats cache in
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm runs actually hit" id)
        true
        (s.Pt.Decode_cache.hits >= s.Pt.Decode_cache.misses);
      (* Half-warm: the first half of the rings (rounded down) already
         cached, the rest decoded in lanes.  A two-entry cache evicts, and
         probing the rings one at a time afterwards hits only what the run
         left resident, in LRU order, so the insertion order shows in the
         stats too. *)
      let restrict keep =
        match report with
        | `Failing r ->
          `Failing { r with Core.Report.traces = keep r.Core.Report.traces }
        | `Success s ->
          `Success { s with Core.Report.s_traces = keep s.Core.Report.s_traces }
      in
      let rings =
        match report with
        | `Failing r -> List.length r.Core.Report.traces
        | `Success s -> List.length s.Core.Report.s_traces
      in
      let half_warm jobs =
        let cache = Pt.Decode_cache.create ~capacity:2 () in
        let only p = restrict (List.filteri (fun i _ -> p i)) in
        ignore (process_report ~jobs:1 ~cache m (only (fun i -> i < rings / 2)));
        let tp = process_report ~jobs ~cache m report in
        for k = 0 to rings - 1 do
          ignore (process_report ~jobs:1 ~cache m (only (( = ) k)))
        done;
        (tp, Pt.Decode_cache.stats cache)
      in
      let tp1, s1 = half_warm 1 in
      let tp4, s4 = half_warm 4 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: half-warm equals cold at jobs 1 and 4" id)
        true
        (tp_equal cold tp1 && tp_equal cold tp4);
      let fields (s : Pt.Decode_cache.stats) =
        Pt.Decode_cache.[ s.hits; s.misses; s.entries; s.evictions ]
      in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: half-warm cache stats, jobs 1 vs 4" id)
        (fields s1) (fields s4))
    (Lazy.force corpus_reports)

(* Warm must equal cold on hostile inputs too, not just clean rings: the
   chaos harness's ring fault classes (truncation, bitflips) produce
   snapshots whose decodes desync or lose sync, and a cache that mixed
   those up would turn one corrupted report into many. *)
let test_cache_correct_on_corrupt_rings () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let e = Experiments.Eval_runs.get bug in
  let c = e.Experiments.Eval_runs.collected in
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let traces =
    (List.hd c.Corpus.Runner.failing).Core.Report.traces
  in
  let truncate frac (tid, b) =
    let n = Bytes.length b in
    (tid, Bytes.sub b 0 (max 1 (n * frac / 100)))
  in
  let bitflip seed (tid, b) =
    let prng = Snorlax_util.Prng.create ~seed in
    let b = Bytes.copy b in
    for _ = 1 to 5 do
      let i = Snorlax_util.Prng.int prng ~bound:(Bytes.length b) in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Snorlax_util.Prng.int prng ~bound:8)))
    done;
    (tid, b)
  in
  let variants =
    [
      ("clean", traces);
      ("truncated-30", List.map (truncate 30) traces);
      ("truncated-75", List.map (truncate 75) traces);
      ("bitflipped-1", List.map (bitflip 1) traces);
      ("bitflipped-2", List.map (bitflip 2) traces);
    ]
  in
  List.iter
    (fun (name, traces) ->
      let no_cache = Pt.Decode_cache.create ~capacity:0 () in
      let cache = Pt.Decode_cache.create ~capacity:64 () in
      let base =
        Tp.process m ~config:Pt.Config.default ~jobs:1 ~cache:no_cache traces
      in
      let cold =
        Tp.process m ~config:Pt.Config.default ~jobs:1 ~cache traces
      in
      let warm =
        Tp.process m ~config:Pt.Config.default ~jobs:1 ~cache traces
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: cached equals uncached" name)
        true (tp_equal base cold);
      Alcotest.(check bool)
        (Printf.sprintf "%s: warm equals cold" name)
        true (tp_equal cold warm))
    variants

(* End-to-end: a whole diagnosis repeated against the same warm cache must
   rank the same root cause — the fleet collector's per-bucket re-runs
   depend on exactly this. *)
let test_diagnosis_stable_under_warm_cache () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let e = Experiments.Eval_runs.get bug in
  let c = e.Experiments.Eval_runs.collected in
  let m = c.Corpus.Runner.built.Corpus.Bug.m in
  let cache = Pt.Decode_cache.create ~capacity:256 () in
  let diagnose () =
    Core.Diagnosis.diagnose ~jobs:1 ~cache m ~config:Pt.Config.default
      ~failing:c.Corpus.Runner.failing
      ~successful:c.Corpus.Runner.successful
  in
  let top r =
    match r.Core.Diagnosis.top with
    | Some t -> Core.Patterns.id t.Core.Statistics.pattern
    | None -> "<none>"
  in
  let cold = diagnose () in
  let warm = diagnose () in
  Alcotest.(check string) "same top pattern" (top cold) (top warm);
  Alcotest.(check (list string)) "same scored ranking"
    (List.map (fun s -> Core.Patterns.id s.Core.Statistics.pattern)
       cold.Core.Diagnosis.scored)
    (List.map (fun s -> Core.Patterns.id s.Core.Statistics.pattern)
       warm.Core.Diagnosis.scored);
  let s = Pt.Decode_cache.stats cache in
  Alcotest.(check bool) "warm diagnosis reused decodes" true
    (s.Pt.Decode_cache.hits > 0)

let tests =
  [
    ( "core.trace_processing",
      [
        Alcotest.test_case "cross-thread order" `Quick test_executes_before_cross_thread;
        Alcotest.test_case "overlap unordered" `Quick
          test_executes_before_overlap_unordered;
        Alcotest.test_case "program order" `Quick
          test_executes_before_same_thread_program_order;
      ] );
    ( "core.patterns",
      [
        Alcotest.test_case "order present" `Quick test_order_present;
        Alcotest.test_case "order reversed absent" `Quick test_order_absent_when_reversed;
        Alcotest.test_case "order same-thread absent" `Quick test_order_absent_same_thread;
        Alcotest.test_case "atomicity present" `Quick test_atomicity_present;
        Alcotest.test_case "atomicity remote outside" `Quick
          test_atomicity_absent_remote_outside;
        Alcotest.test_case "atomicity adjacency" `Quick test_atomicity_adjacency_required;
        Alcotest.test_case "atomicity guard writes" `Quick test_atomicity_guard_write;
        Alcotest.test_case "pattern ids" `Quick test_pattern_ids_stable;
        Alcotest.test_case "ordered iids" `Quick test_ordered_iids;
        Alcotest.test_case "all atomicity shapes" `Quick
          test_all_atomicity_shapes_present;
        Alcotest.test_case "deadlock crossed presence" `Quick
          test_deadlock_presence_crossed;
        Alcotest.test_case "deadlock needs two threads" `Quick
          test_deadlock_presence_needs_distinct_threads;
      ] );
    ( "core.statistics",
      [
        Alcotest.test_case "f1 scoring" `Quick test_f1_scoring;
        Alcotest.test_case "tie-break" `Quick test_f1_tie_break_prefers_order;
        Alcotest.test_case "degenerate inputs" `Quick
          test_scoring_degenerate_inputs;
        Alcotest.test_case "proximate-cause tie-break" `Quick
          test_tie_break_prefers_proximate_remote;
      ] );
    ( "core.accuracy",
      [
        Alcotest.test_case "metrics" `Quick test_accuracy_metrics;
        Alcotest.test_case "anchor provenance" `Quick test_anchor_provenance;
        Alcotest.test_case "report kinds" `Quick test_report_kinds;
      ] );
    ( "core.decode_perf_paths",
      [
        Alcotest.test_case "pool sizes 1/2/4 identical" `Quick
          test_parallel_decode_deterministic;
        Alcotest.test_case "cache on/off/warm identical" `Quick
          test_cached_decode_deterministic;
        Alcotest.test_case "cache correct on corrupt rings" `Quick
          test_cache_correct_on_corrupt_rings;
        Alcotest.test_case "diagnosis stable under warm cache" `Quick
          test_diagnosis_stable_under_warm_cache;
      ] );
  ]
