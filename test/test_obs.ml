(* Tests for the telemetry subsystem: metrics registry semantics, span
   nesting, JSON round-trips, Chrome trace export, and the pipeline /
   simulator instrumentation built on top of them. *)

module Obs = Obs
module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty
module Core = Snorlax_core

(* --- metrics ------------------------------------------------------------ *)

let test_counter_semantics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "a/hits" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  Alcotest.(check int) "accumulates" 5 (Obs.Metrics.value c);
  let c' = Obs.Metrics.counter m "a/hits" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "same name, same cell" 6 (Obs.Metrics.value c);
  Alcotest.(check (option int)) "find_counter" (Some 6)
    (Obs.Metrics.find_counter m "a/hits");
  Alcotest.(check (option int)) "unknown name" None
    (Obs.Metrics.find_counter m "nope")

let test_gauge_semantics () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "a/level" in
  Alcotest.(check (option (float 0.0))) "unset" None (Obs.Metrics.gauge_value g);
  Obs.Metrics.set g 2.0;
  Obs.Metrics.set g 7.5;
  Alcotest.(check (option (float 0.0))) "latest wins" (Some 7.5)
    (Obs.Metrics.gauge_value g)

let test_kind_mismatch_rejected () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x");
  Alcotest.(check bool) "gauge under a counter name" true
    (match Obs.Metrics.gauge m "x" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_histogram_stats () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 2.0; 3.0; 100.0 ];
  let s = Obs.Metrics.stats h in
  Alcotest.(check int) "count" 4 s.Obs.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 106.0 s.Obs.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Obs.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 s.Obs.Metrics.max;
  (* Bucketed percentiles: upper bound of the bucket, within 2x above. *)
  Alcotest.(check bool) "p50 bracket" true
    (s.Obs.Metrics.p50 >= 2.0 && s.Obs.Metrics.p50 <= 4.0);
  Alcotest.(check bool) "p99 bracket" true
    (s.Obs.Metrics.p99 >= 100.0 && s.Obs.Metrics.p99 <= 200.0)

let prop_histogram_percentile_bracket =
  QCheck.Test.make
    ~name:"histogram percentile upper-bounds the true value within 2x"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 1e9))
    (fun xs ->
      let m = Obs.Metrics.create () in
      let h = Obs.Metrics.histogram m "h" in
      List.iter (Obs.Metrics.observe h) xs;
      let s = Obs.Metrics.stats h in
      let true_p50 = Snorlax_util.Stats.percentile xs ~p:50.0 in
      s.Obs.Metrics.p50 >= true_p50
      && s.Obs.Metrics.p50 <= Float.max 1.0 (2.0 *. true_p50))

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter a "c") 2;
  Obs.Metrics.add (Obs.Metrics.counter b "c") 3;
  Obs.Metrics.add (Obs.Metrics.counter b "only_b") 7;
  Obs.Metrics.set (Obs.Metrics.gauge a "g") 1.0;
  Obs.Metrics.set (Obs.Metrics.gauge b "g") 9.0;
  Obs.Metrics.observe (Obs.Metrics.histogram a "h") 4.0;
  Obs.Metrics.observe (Obs.Metrics.histogram b "h") 40.0;
  Obs.Metrics.merge ~into:a b;
  Alcotest.(check (option int)) "counters add" (Some 5)
    (Obs.Metrics.find_counter a "c");
  Alcotest.(check (option int)) "missing counters appear" (Some 7)
    (Obs.Metrics.find_counter a "only_b");
  Alcotest.(check (option (float 0.0))) "gauge takes source" (Some 9.0)
    (Obs.Metrics.find_gauge a "g");
  match Obs.Metrics.find_histogram a "h" with
  | Some s ->
    Alcotest.(check int) "histogram counts add" 2 s.Obs.Metrics.count;
    Alcotest.(check (float 1e-9)) "histogram sums add" 44.0 s.Obs.Metrics.sum
  | None -> Alcotest.fail "merged histogram missing"

(* --- spans -------------------------------------------------------------- *)

(* A deterministic clock: each read advances time by 10 units. *)
let ticking_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 10.0;
    !t

let test_span_nesting () =
  let tr = Obs.Span.create ~clock:(ticking_clock ()) () in
  Obs.Span.with_span tr "outer" (fun outer ->
      Obs.Span.with_span tr "inner" (fun inner ->
          Alcotest.(check (option int)) "inner nests under outer"
            (Some outer.Obs.Span.id) inner.Obs.Span.parent);
      ());
  Obs.Span.with_span tr "sibling" (fun s ->
      Alcotest.(check (option int)) "root level after outer closed" None
        s.Obs.Span.parent);
  Alcotest.(check (list string)) "start order"
    [ "outer"; "inner"; "sibling" ]
    (List.map (fun s -> s.Obs.Span.name) (Obs.Span.spans tr));
  Alcotest.(check int) "no orphans" 0 (List.length (Obs.Span.orphans tr))

let test_span_tracks_isolated () =
  let tr = Obs.Span.create ~clock:(ticking_clock ()) () in
  let a = Obs.Span.start tr ~track:1 "a" in
  let b = Obs.Span.start tr ~track:2 "b" in
  Alcotest.(check (option int)) "different tracks do not nest" None
    b.Obs.Span.parent;
  Obs.Span.finish tr b;
  Obs.Span.finish tr a

let test_span_timing_and_finish () =
  let tr = Obs.Span.create ~clock:(ticking_clock ()) () in
  let sp = Obs.Span.start tr "s" in
  Alcotest.(check bool) "open" true (Obs.Span.is_open sp);
  Alcotest.(check bool) "duration NaN while open" true
    (Float.is_nan (Obs.Span.duration_ns sp));
  Obs.Span.finish tr sp;
  Alcotest.(check (float 1e-9)) "one tick long" 10.0 (Obs.Span.duration_ns sp);
  Alcotest.(check bool) "double finish rejected" true
    (match Obs.Span.finish tr sp with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_span_orphans_reported () =
  let tr = Obs.Span.create ~clock:(ticking_clock ()) () in
  let sp = Obs.Span.start tr "leaked" in
  ignore (Obs.Span.start tr "leaked/child");
  Alcotest.(check int) "both orphaned" 2 (List.length (Obs.Span.orphans tr));
  ignore sp

let test_span_args_mutable_after_finish () =
  let tr = Obs.Span.create ~clock:(ticking_clock ()) () in
  let sp = Obs.Span.with_span tr "s" (fun sp -> sp) in
  Obs.Span.set_arg sp "candidates" (Obs.Span.Int 42);
  Alcotest.(check bool) "arg recorded late" true
    (Obs.Span.find_arg sp "candidates" = Some (Obs.Span.Int 42))

let test_wall_clock_monotone () =
  let prev = ref (Obs.Span.wall_clock_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Span.wall_clock_ns () in
    Alcotest.(check bool) "strictly increasing" true (t > !prev);
    prev := t
  done

(* --- json --------------------------------------------------------------- *)

let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Obs.Json.Null;
                map (fun b -> Obs.Json.Bool b) bool;
                map (fun i -> Obs.Json.Int i) int;
                map (fun f -> Obs.Json.Float f) (float_range (-1e12) 1e12);
                map (fun s -> Obs.Json.String s) (string_size (int_range 0 10));
              ]
          in
          if n <= 0 then scalar
          else
            oneof
              [
                scalar;
                map
                  (fun l -> Obs.Json.List l)
                  (list_size (int_range 0 4) (self (n / 2)));
                map
                  (fun kvs -> Obs.Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size (int_range 0 8)) (self (n / 2))));
              ])
        (min n 4))

let prop_json_roundtrip =
  QCheck.Test.make ~name:"Json.parse inverts Json.to_string" ~count:500
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun j -> Obs.Json.parse (Obs.Json.to_string j) = Ok j)

let test_json_integral_floats_stay_floats () =
  (* "%.15g" prints an integral float without a '.', which the parser
     would read back as an [Int]. *)
  List.iter
    (fun f ->
      let s = Obs.Json.to_string (Obs.Json.Float f) in
      match Obs.Json.parse s with
      | Ok (Obs.Json.Float g) ->
        Alcotest.(check bool) (s ^ " round-trips bit for bit") true
          (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g))
      | Ok _ -> Alcotest.fail (s ^ " parsed back as a non-float")
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    [ 233638339760.; 1.; -0. ]

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ s))
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

(* --- chrome trace export ------------------------------------------------ *)

let events_of json =
  match Obs.Json.member "traceEvents" json with
  | Some evs -> Option.get (Obs.Json.to_list evs)
  | None -> Alcotest.fail "no traceEvents"

let event_field name ev =
  match Obs.Json.member name ev with
  | Some (Obs.Json.String s) -> s
  | _ -> Alcotest.fail ("missing field " ^ name)

let test_chrome_export_shape () =
  let tr = Obs.Span.create ~clock:(ticking_clock ()) () in
  Obs.Span.with_span tr "diagnosis/stage" (fun sp ->
      Obs.Span.set_arg sp "candidates" (Obs.Span.Int 3));
  let leaked = Obs.Span.start tr "leak" in
  ignore leaked;
  let m = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter m "hits") 9;
  let doc = Obs.Chrome_trace.export ~metrics:m tr in
  (* The export must be self-consistent JSON: print and re-parse. *)
  (match Obs.Json.parse (Obs.Json.to_string doc) with
  | Ok j -> Alcotest.(check bool) "round-trips" true (j = doc)
  | Error e -> Alcotest.fail e);
  let evs = events_of doc in
  let phases = List.map (event_field "ph") evs in
  Alcotest.(check bool) "has a complete event" true (List.mem "X" phases);
  Alcotest.(check bool) "open span exports as B" true (List.mem "B" phases);
  Alcotest.(check bool) "counter exports as C" true (List.mem "C" phases);
  let stage =
    List.find (fun e -> event_field "name" e = "diagnosis/stage") evs
  in
  Alcotest.(check string) "category from the name prefix" "diagnosis"
    (event_field "cat" stage);
  match Obs.Json.member "args" stage with
  | Some args ->
    Alcotest.(check bool) "span args exported" true
      (Obs.Json.member "candidates" args = Some (Obs.Json.Int 3))
  | None -> Alcotest.fail "stage event has no args"

(* --- scope -------------------------------------------------------------- *)

let with_scope f =
  ignore (Obs.Scope.enable ());
  Fun.protect ~finally:Obs.Scope.disable f

let test_scope_noop_when_disabled () =
  Obs.Scope.disable ();
  Obs.Scope.count "ghost" 1;
  Obs.Scope.with_span "ghost" (fun () -> ());
  Alcotest.(check bool) "disabled" false (Obs.Scope.enabled ());
  Alcotest.(check string) "empty summary" "" (Obs.Scope.summary ());
  Alcotest.(check bool) "no export" true (Obs.Scope.export_chrome () = None)

let test_scope_records () =
  with_scope (fun () ->
      Obs.Scope.with_span "work" (fun () -> Obs.Scope.count "things" 2);
      let ctx = Option.get (Obs.Scope.current ()) in
      Alcotest.(check (option int)) "counter visible" (Some 2)
        (Obs.Metrics.find_counter ctx.Obs.Scope.metrics "things");
      Alcotest.(check (list string)) "span visible" [ "work" ]
        (List.map
           (fun s -> s.Obs.Span.name)
           (Obs.Span.spans ctx.Obs.Scope.trace)))

(* --- pipeline instrumentation ------------------------------------------- *)

let diagnose_quick () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  match Corpus.Runner.collect bug () with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    let res =
      Core.Diagnosis.diagnose c.Corpus.Runner.built.Corpus.Bug.m
        ~config:Pt.Config.default ~failing:c.Corpus.Runner.failing
        ~successful:c.Corpus.Runner.successful
    in
    (c, res)

let stage_count res name =
  let sp =
    List.find (fun s -> s.Obs.Span.name = name) res.Core.Diagnosis.spans
  in
  match Obs.Span.find_arg sp "candidates" with
  | Some (Obs.Span.Int n) -> n
  | _ -> Alcotest.fail (name ^ ": no candidates arg")

let check_diagnosis_spans res =
  Alcotest.(check (list string)) "root plus the seven stages, in order"
    ("diagnosis" :: Core.Diagnosis.stage_names)
    (List.map (fun s -> s.Obs.Span.name) res.Core.Diagnosis.spans);
  List.iter
    (fun (sp : Obs.Span.span) ->
      Alcotest.(check bool) (sp.Obs.Span.name ^ " finished") false
        (Obs.Span.is_open sp);
      Alcotest.(check bool) (sp.Obs.Span.name ^ " timed") true
        (Obs.Span.duration_ns sp >= 0.0))
    res.Core.Diagnosis.spans;
  (* The span args must tell the same funnel story as the legacy record. *)
  let sc = res.Core.Diagnosis.stage_counts in
  Alcotest.(check int) "layout count" sc.Core.Diagnosis.total_instrs
    (stage_count res "diagnosis/layout");
  Alcotest.(check int) "trace processing count"
    sc.Core.Diagnosis.after_trace_processing
    (stage_count res "diagnosis/trace_processing");
  Alcotest.(check int) "points-to count" sc.Core.Diagnosis.after_points_to
    (stage_count res "diagnosis/points_to");
  Alcotest.(check int) "anchor count" 1 (stage_count res "diagnosis/anchor");
  Alcotest.(check int) "type ranking count"
    sc.Core.Diagnosis.after_type_ranking
    (stage_count res "diagnosis/type_ranking");
  Alcotest.(check int) "patterns count" sc.Core.Diagnosis.after_patterns
    (stage_count res "diagnosis/patterns");
  Alcotest.(check int) "statistics count" sc.Core.Diagnosis.after_statistics
    (stage_count res "diagnosis/statistics")

let test_diagnosis_spans_without_scope () =
  Obs.Scope.disable ();
  let _, res = diagnose_quick () in
  check_diagnosis_spans res;
  match res.Core.Diagnosis.spans with
  | root :: _ ->
    Alcotest.(check string) "root span first" "diagnosis" root.Obs.Span.name;
    Alcotest.(check bool) "root span timed" true
      (Obs.Span.duration_ns root > 0.0)
  | [] -> Alcotest.fail "no spans"

let test_diagnosis_spans_in_scope () =
  with_scope (fun () ->
      let _, res = diagnose_quick () in
      check_diagnosis_spans res;
      let ctx = Option.get (Obs.Scope.current ()) in
      let names =
        List.map (fun s -> s.Obs.Span.name) (Obs.Span.spans ctx.Obs.Scope.trace)
      in
      Alcotest.(check bool) "stages land in the ambient trace" true
        (List.for_all (fun n -> List.mem n names) Core.Diagnosis.stage_names);
      Alcotest.(check bool) "corpus root span present" true
        (List.mem "corpus/pbzip2-1" names);
      (* The runner and decoder publish through the same scope. *)
      let counter n =
        Option.value ~default:0 (Obs.Metrics.find_counter ctx.Obs.Scope.metrics n)
      in
      Alcotest.(check bool) "runs counted" true (counter "corpus/runs" > 0);
      (* The shared decode cache may already hold these snapshots (earlier
         tests decode the same fixture); decode work then shows up as
         cache hits instead of decoder invocations. *)
      Alcotest.(check bool) "decodes counted" true
        (counter "pt/decode_calls" + counter "decode_cache/hits" > 0);
      Alcotest.(check bool) "sim instrs counted" true
        (counter "sim/instructions" > 0))

(* --- simulator scheduler telemetry -------------------------------------- *)

(* Four threads hammering one mutex with a delay inside the critical
   section: contention, parking and context switches are all certain. *)
let contended_module () =
  let m = Lir.Irmod.create "contended" in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "counter" T.I64;
  B.define m "worker" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.for_ b ~from:0 ~below:(V.i64 20) (fun _ ->
          B.mutex_lock b (V.Global "lock");
          let v = B.load b (V.Global "counter") in
          B.io_delay b ~ns:5_000;
          B.store b ~value:(B.add b v (V.i64 1)) ~ptr:(V.Global "counter");
          B.mutex_unlock b (V.Global "lock"));
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      let tids = List.init 4 (fun i -> B.spawn b "worker" (V.i64 i)) in
      List.iter (fun t -> B.join b t) tids;
      B.ret_void b);
  Lir.Verify.check_exn m;
  m

let test_sim_scheduler_telemetry () =
  with_scope (fun () ->
      let m = contended_module () in
      Lir.Irmod.layout m;
      let config =
        { Sim.Interp.default_config with seed = 5; hooks = Sim.Telemetry.hooks () }
      in
      let r = Sim.Interp.run ~config m ~entry:"main" in
      Alcotest.(check bool) "run completed" true
        (r.Sim.Interp.outcome = Sim.Interp.Completed);
      let ctx = Option.get (Obs.Scope.current ()) in
      let counter n =
        Option.value ~default:0 (Obs.Metrics.find_counter ctx.Obs.Scope.metrics n)
      in
      Alcotest.(check bool) "instructions counted" true
        (counter "sim/instructions" > 0);
      Alcotest.(check bool) "context switches counted" true
        (counter "sim/context_switches" > 0);
      Alcotest.(check bool) "contention counted" true
        (counter "sim/lock_contention" > 0);
      match Obs.Metrics.find_histogram ctx.Obs.Scope.metrics "sim/parked_ns" with
      | Some s ->
        Alcotest.(check bool) "parked time observed" true
          (s.Obs.Metrics.count > 0 && s.Obs.Metrics.max > 0.0)
      | None -> Alcotest.fail "no parked_ns histogram")

(* The determinism contract: telemetry hooks must not perturb a run. *)
let test_sim_telemetry_preserves_determinism () =
  let outcome_of hooks =
    let m = contended_module () in
    Lir.Irmod.layout m;
    let config = { Sim.Interp.default_config with seed = 9; hooks } in
    let r = Sim.Interp.run ~config m ~entry:"main" in
    (r.Sim.Interp.outcome, r.Sim.Interp.final_time_ns)
  in
  let bare = outcome_of Sim.Hooks.none in
  let instrumented =
    with_scope (fun () -> outcome_of (Sim.Telemetry.hooks ()))
  in
  Alcotest.(check bool) "identical outcome and virtual time" true
    (bare = instrumented)

(* --- bench_diff ---------------------------------------------------------- *)

let parse_exn s =
  match Obs.Json.parse s with
  | Ok j -> j
  | Error msg -> Alcotest.failf "parse: %s" msg

let diff ?(max_regress = 10.0) a b =
  Obs.Bench_diff.compare ~old_:(parse_exn a) ~new_:(parse_exn b) ~max_regress

let find_row (r : Obs.Bench_diff.report) key =
  match
    List.find_opt
      (fun (row : Obs.Bench_diff.row) -> row.Obs.Bench_diff.key = key)
      r.Obs.Bench_diff.rows
  with
  | Some row -> row
  | None -> Alcotest.failf "no row for %s" key

let test_bench_diff_lower_is_better () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " gates") true (Obs.Bench_diff.lower_is_better k))
    [
      "seq_cold_ns"; "total_us"; "collect_ms"; "traceEvents/decode/dur";
      "wire_bytes"; "cache_misses"; "cache_evictions"; "decode_errors";
      "lost_bytes"; "pt/decode_calls"; "dropped";
    ];
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (k ^ " informational") false
        (Obs.Bench_diff.lower_is_better k))
    [ "endpoints"; "warm_speedup"; "cache_hits"; "top_f1"; "buckets"; "runs" ]

let test_bench_diff_self_clean () =
  let doc = {|{"a_ns": 12.5, "nested": {"wire_bytes": 100}, "speedup": 2.0}|} in
  let r = diff doc doc in
  Alcotest.(check int) "no regressions against self" 0
    r.Obs.Bench_diff.regressions;
  Alcotest.(check int) "all leaves flattened" 3
    (List.length r.Obs.Bench_diff.rows)

let test_bench_diff_detects_regression () =
  let old_ = {|{"a_ns": 100, "b_ns": 100, "speedup": 3.0}|} in
  let new_ = {|{"a_ns": 150, "b_ns": 105, "speedup": 1.0}|} in
  let r = diff old_ new_ in
  (* a_ns +50% regresses; b_ns +5% is inside the 10% tolerance; speedup
     collapsing is informational — wall-time keys are the gate. *)
  Alcotest.(check int) "one regression" 1 r.Obs.Bench_diff.regressions;
  Alcotest.(check bool) "a_ns flagged" true
    (find_row r "a_ns").Obs.Bench_diff.regressed;
  Alcotest.(check bool) "b_ns within tolerance" false
    (find_row r "b_ns").Obs.Bench_diff.regressed;
  Alcotest.(check bool) "speedup not gated" false
    (find_row r "speedup").Obs.Bench_diff.gated;
  let strict = diff ~max_regress:1.0 old_ new_ in
  Alcotest.(check int) "tighter tolerance catches b_ns" 2
    strict.Obs.Bench_diff.regressions

let test_bench_diff_zero_baseline () =
  (* 0 -> 0 is clean; 0 -> anything positive regresses (no percentage
     exists, so any growth from a clean baseline must flag). *)
  let r = diff {|{"errors": 0}|} {|{"errors": 0}|} in
  Alcotest.(check int) "0 -> 0 clean" 0 r.Obs.Bench_diff.regressions;
  let r = diff {|{"errors": 0}|} {|{"errors": 3}|} in
  Alcotest.(check int) "0 -> 3 regresses" 1 r.Obs.Bench_diff.regressions

let test_bench_diff_asymmetric_keys () =
  let r = diff {|{"gone_ns": 5, "kept_ns": 5}|} {|{"kept_ns": 5, "new_ns": 9}|} in
  Alcotest.(check int) "missing keys never gate" 0 r.Obs.Bench_diff.regressions;
  let gone = find_row r "gone_ns" in
  Alcotest.(check bool) "disappeared metric reported" true
    (gone.Obs.Bench_diff.new_v = None);
  let added = find_row r "new_ns" in
  Alcotest.(check bool) "added metric reported" true
    (added.Obs.Bench_diff.old_v = None);
  Alcotest.(check bool) "added gated-named metric never regresses" false
    added.Obs.Bench_diff.regressed;
  (* Growing an artifact (new fields land in BENCH_*.json as benches
     evolve) must compare clean against an older baseline in both
     directions — only keys present on both sides can gate. *)
  let grown =
    diff
      {|{"stream_seq_ns": 100}|}
      {|{"stream_seq_ns": 100, "stream_par_ns": 900, "shard_latency": [{"name": "s0", "queue_wait_p99_ns": 5e6}]}|}
  in
  Alcotest.(check int) "grown artifact clean vs old baseline" 0
    grown.Obs.Bench_diff.regressions;
  let shrunk =
    diff
      {|{"stream_seq_ns": 100, "stream_par_ns": 900}|}
      {|{"stream_seq_ns": 100}|}
  in
  Alcotest.(check int) "shrunk artifact clean too" 0
    shrunk.Obs.Bench_diff.regressions;
  Alcotest.(check int) "disappeared key still reported" 2
    (List.length shrunk.Obs.Bench_diff.rows)

let test_bench_diff_named_list_elements () =
  (* Chrome trace events: list elements key by their "name" field, so
     span durations diff across runs even though lists are positional. *)
  let old_ = {|{"traceEvents": [{"name": "decode", "dur": 100}]}|} in
  let new_ = {|{"traceEvents": [{"name": "other", "dur": 1}, {"name": "decode", "dur": 200}]}|} in
  let r = diff old_ new_ in
  let row = find_row r "traceEvents/decode/dur" in
  Alcotest.(check bool) "matched by name across positions" true
    row.Obs.Bench_diff.regressed

(* --- histogram edge cases ------------------------------------------------ *)

let test_histogram_empty () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  let s = Obs.Metrics.stats h in
  Alcotest.(check int) "count" 0 s.Obs.Metrics.count;
  Alcotest.(check (float 0.0)) "sum" 0.0 s.Obs.Metrics.sum;
  Alcotest.(check (float 0.0)) "min" 0.0 s.Obs.Metrics.min;
  Alcotest.(check (float 0.0)) "max" 0.0 s.Obs.Metrics.max;
  Alcotest.(check (float 0.0)) "p50" 0.0 s.Obs.Metrics.p50;
  Alcotest.(check (float 0.0)) "p99" 0.0 (Obs.Metrics.percentile h ~p:99.0);
  Alcotest.(check bool) "no cumulative buckets" true
    (Obs.Metrics.cumulative_buckets h = [])

let test_histogram_single_sample () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  Obs.Metrics.observe h 7.0;
  (* One sample: every percentile is that sample (the bucket's upper
     bound clamps to the observed max). *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f" p)
        7.0
        (Obs.Metrics.percentile h ~p))
    [ 0.0; 50.0; 100.0 ]

let test_histogram_negative_clamps () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  Obs.Metrics.observe h (-5.0);
  let s = Obs.Metrics.stats h in
  Alcotest.(check int) "counted" 1 s.Obs.Metrics.count;
  Alcotest.(check (float 0.0)) "clamped to zero" 0.0 s.Obs.Metrics.min;
  Alcotest.(check (float 0.0)) "max also zero" 0.0 s.Obs.Metrics.max;
  Alcotest.(check (float 0.0)) "sum unaffected by the negative" 0.0
    s.Obs.Metrics.sum

let prop_cumulative_buckets_monotone =
  QCheck.Test.make
    ~name:"cumulative buckets are monotone and end at the total count"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (float_range (-10.0) 1e15))
    (fun xs ->
      let m = Obs.Metrics.create () in
      let h = Obs.Metrics.histogram m "h" in
      List.iter (Obs.Metrics.observe h) xs;
      let bkts = Obs.Metrics.cumulative_buckets h in
      let rec monotone = function
        | (le1, c1) :: ((le2, c2) :: _ as rest) ->
          le1 < le2 && c1 <= c2 && monotone rest
        | _ -> true
      in
      monotone bkts
      &&
      match List.rev bkts with
      | [] -> xs = []
      | (_, last) :: _ -> last = (Obs.Metrics.stats h).Obs.Metrics.count)

(* --- structured log + flight recorder ------------------------------------ *)

(* Capture sink plus state restore: the log's level and sink list are
   process-wide, so every test puts them back. *)
let with_log_capture ?(level = Obs.Log.Debug) f =
  let seen = ref [] in
  Obs.Log.clear_sinks ();
  Obs.Log.add_sink (fun e -> seen := e :: !seen);
  Obs.Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.clear_sinks ();
      Obs.Log.set_level Obs.Log.Info)
    (fun () -> f seen)

let names_of seen = List.rev_map (fun e -> e.Obs.Log.name) !seen

let test_log_level_filtering () =
  with_log_capture ~level:Obs.Log.Warn (fun seen ->
      Obs.Log.debug "a";
      Obs.Log.info "b";
      Obs.Log.warn "c";
      Obs.Log.error "d";
      Alcotest.(check (list string)) "only warn and above forwarded"
        [ "c"; "d" ] (names_of seen))

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_log_format_event () =
  let e =
    {
      Obs.Log.ts_ns = 1_234_567.0;
      level = Obs.Log.Warn;
      name = "fleet/ingest_reject";
      span = Some "fleet/ingest";
      fields =
        [
          ("reason", Obs.Log.Str "bad byte");
          ("bytes", Obs.Log.Int 17);
          ("ok", Obs.Log.Bool false);
          ("ratio", Obs.Log.Float 0.5);
        ];
    }
  in
  let line = Obs.Log.format_event e in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in " ^ line) true (contains line needle))
    [
      "WARN";
      "fleet/ingest_reject";
      "(in fleet/ingest)";
      "reason=\"bad byte\"";  (* space forces quoting *)
      "bytes=17";
      "ok=false";
      "ratio=0.5";
    ]

let test_log_json_sink_parses () =
  let path = Filename.temp_file "snorlax_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.Log.clear_sinks ();
      Obs.Log.add_sink (Obs.Log.json_sink oc);
      Fun.protect
        ~finally:(fun () ->
          Obs.Log.clear_sinks ();
          close_out_noerr oc)
        (fun () ->
          Obs.Log.warn
            ~fields:[ ("k", Obs.Log.Str "v"); ("n", Obs.Log.Int 3) ]
            "json/event");
      let lines =
        In_channel.with_open_text path In_channel.input_lines
      in
      match lines with
      | [ line ] -> (
        match Obs.Json.parse line with
        | Error msg -> Alcotest.failf "sink line is not JSON: %s" msg
        | Ok j ->
          Alcotest.(check bool) "event name" true
            (Obs.Json.member "event" j = Some (Obs.Json.String "json/event"));
          Alcotest.(check bool) "level" true
            (Obs.Json.member "level" j = Some (Obs.Json.String "warn"));
          let fields = Option.get (Obs.Json.member "fields" j) in
          Alcotest.(check bool) "fields preserved" true
            (Obs.Json.member "n" fields = Some (Obs.Json.Int 3)))
      | l -> Alcotest.failf "expected 1 line, got %d" (List.length l))

let mk_event i =
  {
    Obs.Log.ts_ns = float_of_int i;
    level = Obs.Log.Info;
    name = Printf.sprintf "e%d" i;
    span = None;
    fields = [];
  }

let test_recorder_ring () =
  let r = Obs.Log.Recorder.create ~capacity:4 () in
  Alcotest.(check string) "empty dump" "" (Obs.Log.Recorder.dump r);
  for i = 1 to 10 do
    Obs.Log.Recorder.record r (mk_event i)
  done;
  Alcotest.(check (list string)) "keeps the last capacity, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun e -> e.Obs.Log.name) (Obs.Log.Recorder.events r));
  Alcotest.(check int) "seen counts every record" 10
    (Obs.Log.Recorder.seen r);
  let dump = Obs.Log.Recorder.dump r in
  Alcotest.(check bool) "dump header" true
    (contains dump "flight recorder (last 4 of 10 events):");
  Obs.Log.Recorder.clear r;
  Alcotest.(check int) "clear resets" 0 (Obs.Log.Recorder.seen r);
  Alcotest.(check string) "dump empty again" "" (Obs.Log.Recorder.dump r)

let test_recorder_captures_below_level_and_replays () =
  let r = Obs.Log.Recorder.create ~capacity:8 () in
  with_log_capture ~level:Obs.Log.Error (fun seen ->
      Obs.Log.with_recorder r (fun () ->
          Obs.Log.info "inside";
          Obs.Log.debug "below-threshold");
      Obs.Log.info "outside";
      Alcotest.(check int) "nothing forwarded below Error" 0
        (List.length !seen);
      Alcotest.(check (list string)) "ring captured regardless of level"
        [ "inside"; "below-threshold" ]
        (List.map (fun e -> e.Obs.Log.name) (Obs.Log.Recorder.events r));
      (* The black-box dump action: replay pushes the retained events to
         the sinks even though their level never passed the filter. *)
      Obs.Log.replay r;
      Alcotest.(check (list string)) "replay bypasses the threshold"
        [ "inside"; "below-threshold" ] (names_of seen))

let test_log_span_correlation () =
  with_log_capture (fun seen ->
      with_scope (fun () ->
          Obs.Scope.with_span "corr/span" (fun () -> Obs.Log.info "in");
          Obs.Log.info "out");
      match List.rev !seen with
      | [ a; b ] ->
        Alcotest.(check (option string)) "inside the span"
          (Some "corr/span") a.Obs.Log.span;
        Alcotest.(check (option string)) "outside" None b.Obs.Log.span
      | l -> Alcotest.failf "expected 2 events, got %d" (List.length l))

(* --- openmetrics exposition ---------------------------------------------- *)

let test_openmetrics_name_sanitize () =
  Alcotest.(check string) "slash" "pt_decode_ns"
    (Obs.Openmetrics.metric_name "pt/decode_ns");
  Alcotest.(check string) "leading digit" "_9lives"
    (Obs.Openmetrics.metric_name "9lives");
  Alcotest.(check string) "empty" "_" (Obs.Openmetrics.metric_name "")

let test_openmetrics_render_shape () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter m "pt/decode_calls") 3;
  Obs.Metrics.set (Obs.Metrics.gauge m "fleet/dedup_ratio") 2.5;
  let h = Obs.Metrics.histogram m "fleet/ingest_ns" in
  List.iter (Obs.Metrics.observe h) [ 1.0; 3.0; 1000.0 ];
  let text = Obs.Openmetrics.render m in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains text needle))
    [
      "# TYPE pt_decode_calls counter";
      "pt_decode_calls_total 3";
      "# TYPE fleet_dedup_ratio gauge";
      "fleet_dedup_ratio 2.5";
      "# TYPE fleet_ingest_ns histogram";
      "fleet_ingest_ns_bucket{le=\"+Inf\"} 3";
      "fleet_ingest_ns_count 3";
    ];
  Alcotest.(check bool) "terminated by # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  match Obs.Openmetrics.lint text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "own render fails lint: %s" msg

let test_openmetrics_lint_rejects () =
  List.iter
    (fun (what, text) ->
      match Obs.Openmetrics.lint text with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "lint accepted %s" what)
    [
      ("missing # EOF", "# TYPE a counter\na_total 3\n");
      ("content after # EOF", "# EOF\n# TYPE a counter\na_total 3\n");
      ("counter without _total", "# TYPE a counter\na 3\n# EOF\n");
      ("negative counter", "# TYPE a counter\na_total -1\n# EOF\n");
      ("sample outside a family", "a_total 3\n# EOF\n");
      ( "non-cumulative buckets",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\n\
         h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n# EOF\n" );
      ( "missing +Inf bucket",
        "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 3\nh_count 2\n# EOF\n"
      );
      ( "count disagrees with +Inf",
        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n\
         # EOF\n" );
      ("duplicate family", "# TYPE a gauge\na 1\n# TYPE a gauge\na 2\n# EOF\n");
      ("bad name", "# TYPE 1a counter\n1a_total 3\n# EOF\n");
    ]

let prop_openmetrics_render_lints_clean =
  QCheck.Test.make ~name:"render output always lints clean" ~count:100
    QCheck.(
      list_of_size
        Gen.(int_range 0 20)
        (pair (int_bound 2) (float_range 0.0 1e12)))
    (fun specs ->
      let m = Obs.Metrics.create () in
      List.iteri
        (fun i (kind, v) ->
          let name = Printf.sprintf "m%d/k-%d" i kind in
          match kind with
          | 0 -> Obs.Metrics.add (Obs.Metrics.counter m name) (int_of_float v)
          | 1 -> Obs.Metrics.set (Obs.Metrics.gauge m name) v
          | _ -> Obs.Metrics.observe (Obs.Metrics.histogram m name) v)
        specs;
      Obs.Openmetrics.lint (Obs.Openmetrics.render m) = Ok ())

(* --- chrome counter time series ------------------------------------------ *)

let test_chrome_counter_time_series () =
  with_scope (fun () ->
      Obs.Scope.with_span "phase/one" (fun () -> Obs.Scope.count "work" 1);
      Obs.Scope.with_span "phase/two" (fun () -> Obs.Scope.count "work" 2);
      (* [count] accumulates, so the boundary samples see 1 then 3. *)
      let doc = Option.get (Obs.Scope.export_chrome ()) in
      let values =
        List.filter_map
          (fun e ->
            if event_field "ph" e = "C" && event_field "name" e = "work" then
              match Obs.Json.member "args" e with
              | Some args -> Obs.Json.member "value" args
              | None -> None
            else None)
          (events_of doc)
      in
      (* Span-boundary samples carry the counter's value *at that time* —
         a real series, not just the final stamp. *)
      Alcotest.(check bool) "intermediate value sampled" true
        (List.mem (Obs.Json.Int 1) values);
      Alcotest.(check bool) "final value sampled" true
        (List.mem (Obs.Json.Int 3) values);
      Alcotest.(check bool) "at least boundary samples plus end stamp" true
        (List.length values >= 3))

(* --- worker-registry merge wiring ----------------------------------------- *)

let test_parallel_decode_merges_worker_metrics () =
  (* Decode lanes record into private scopes (the ambient one is not
     domain-safe) that [map_lanes] folds back after the barrier, so the
     ambient registry reads the same at every width: one decode_ns sample
     per actual decoder invocation, and every pt/* counter as at jobs 1 —
     the counters used to be silently dropped. *)
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  match Corpus.Runner.collect bug () with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    let m = c.Corpus.Runner.built.Corpus.Bug.m in
    let traces = (List.hd c.Corpus.Runner.failing).Core.Report.traces in
    let run jobs =
      with_scope (fun () ->
          let cache = Pt.Decode_cache.create ~capacity:0 () in
          ignore
            (Core.Trace_processing.process m ~config:Pt.Config.default ~jobs
               ~cache traces);
          let metrics = (Option.get (Obs.Scope.current ())).Obs.Scope.metrics in
          let counters =
            List.filter_map
              (fun name ->
                if String.starts_with ~prefix:"pt/" name then
                  Option.map (fun v -> (name, v))
                    (Obs.Metrics.find_counter metrics name)
                else None)
              (List.sort compare (Obs.Metrics.names metrics))
          in
          let samples name =
            Option.map
              (fun s -> s.Obs.Metrics.count)
              (Obs.Metrics.find_histogram metrics name)
          in
          (counters, samples "pt/decode_ns", samples "pt/snapshot_bytes"))
    in
    let c1, ns1, bytes1 = run 1 in
    let c4, ns4, bytes4 = run 4 in
    let calls = Option.value ~default:0 (List.assoc_opt "pt/decode_calls" c4) in
    Alcotest.(check bool) "decoder invoked" true (calls > 0);
    Alcotest.(check (option int)) "one decode_ns sample per invocation"
      (Some calls) ns4;
    Alcotest.(check (list (pair string int))) "pt/* counters, jobs 1 vs 4" c1
      c4;
    Alcotest.(check (option int)) "pt/decode_ns samples, jobs 1 vs 4" ns1 ns4;
    Alcotest.(check (option int)) "pt/snapshot_bytes samples, jobs 1 vs 4"
      bytes1 bytes4

(* --- the corpus-sweep lane function ----------------------------------- *)

module Pool = Snorlax_util.Pool

let test_sweep_equals_map () =
  let f x = (x * x) + 1 in
  List.iter
    (fun n ->
      let items = List.init n Fun.id in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "%d items, jobs %d" n jobs)
            (List.map f items)
            (Obs.Scope.sweep ~jobs f items))
        [ 1; 2; 4 ])
    [ 0; 1; 3; 9 ]

let test_sweep_lanes_decode_sequentially () =
  let items = List.init 6 Fun.id in
  let seen =
    Pool.with_default_jobs 3 (fun () ->
        Obs.Scope.sweep ~jobs:4 (fun _ -> Pool.default_jobs ()) items)
  in
  (* A single-core host has one lane: the plain loop, default untouched. *)
  let expect = if Pool.lanes ~jobs:4 6 > 1 then 1 else 3 in
  Alcotest.(check (list int)) "default_jobs inside each lane"
    (List.map (fun _ -> expect) items)
    seen

let test_sweep_sequential_path_untouched () =
  Pool.with_default_jobs 3 @@ fun () ->
  with_scope @@ fun () ->
  let ambient = Option.get (Obs.Scope.current ()) in
  let seen =
    Obs.Scope.sweep ~jobs:1
      (fun _ ->
        ( Pool.default_jobs (),
          match Obs.Scope.current () with
          | Some c -> c == ambient
          | None -> false ))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list (pair int bool)))
    "unpinned default, ambient scope"
    [ (3, true); (3, true); (3, true) ]
    seen;
  Alcotest.(check int) "default restored" 3 (Pool.default_jobs ())

let test_sweep_merges_lane_counters () =
  let run jobs =
    with_scope (fun () ->
        ignore
          (Obs.Scope.sweep ~jobs
             (fun i ->
               Obs.Scope.count "lane/items" 1;
               Obs.Scope.count "lane/sum" i;
               Obs.Scope.observe "lane/value" (float_of_int i))
             (List.init 8 Fun.id));
        let m = (Option.get (Obs.Scope.current ())).Obs.Scope.metrics in
        ( Obs.Metrics.find_counter m "lane/items",
          Obs.Metrics.find_counter m "lane/sum",
          Option.map
            (fun s -> s.Obs.Metrics.count)
            (Obs.Metrics.find_histogram m "lane/value") ))
  in
  let seq = run 1 in
  Alcotest.(check bool) "sequential totals" true
    (seq = (Some 8, Some 28, Some 8));
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d sums like the sequential run" jobs)
        true (run jobs = seq))
    [ 2; 4 ]

let test_sweep_lane_exception_reaches_caller () =
  List.iter
    (fun jobs ->
      with_scope @@ fun () ->
      let ambient = Option.get (Obs.Scope.current ()) in
      let default = Pool.default_jobs () in
      (match
         Obs.Scope.sweep ~jobs
           (fun i -> if i = 5 then failwith "lane 5" else i)
           (List.init 8 Fun.id)
       with
      | _ -> Alcotest.failf "jobs %d: lane exception swallowed" jobs
      | exception Failure msg ->
        Alcotest.(check string) (Printf.sprintf "jobs %d" jobs) "lane 5" msg);
      Alcotest.(check bool) "ambient scope restored" true
        (match Obs.Scope.current () with Some c -> c == ambient | None -> false);
      Alcotest.(check int) "default restored" default (Pool.default_jobs ()))
    [ 1; 4 ]

let test_map_lanes_failure_on_caller_owned_pool () =
  (* The shard service plane keeps one pool across batches: a failing
     lane must reach the caller, restore its context, and leave the pool
     ready for the next batch.  Four jobs, unclamped by the core count. *)
  Pool.with_pool ~jobs:4 @@ fun pool ->
  with_scope @@ fun () ->
  let ambient = Option.get (Obs.Scope.current ()) in
  let default = Pool.default_jobs () in
  let items = Array.init 8 Fun.id in
  (match
     Obs.Scope.map_lanes pool
       (fun i x -> if i = 5 then failwith "lane 5" else x)
       items
   with
  | _ -> Alcotest.fail "lane exception swallowed"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "lane 5" msg);
  Alcotest.(check bool) "ambient scope restored" true
    (match Obs.Scope.current () with Some c -> c == ambient | None -> false);
  Alcotest.(check int) "default restored" default (Pool.default_jobs ());
  Alcotest.(check (array int)) "the next batch runs" (Array.map succ items)
    (Obs.Scope.map_lanes pool (fun _ x -> x + 1) items)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "obs.metrics",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
        Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_rejected;
        Alcotest.test_case "histogram stats" `Quick test_histogram_stats;
        Alcotest.test_case "merge" `Quick test_metrics_merge;
        Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
        Alcotest.test_case "single sample percentiles" `Quick
          test_histogram_single_sample;
        Alcotest.test_case "negative observe clamps" `Quick
          test_histogram_negative_clamps;
        qtest prop_histogram_percentile_bracket;
        qtest prop_cumulative_buckets_monotone;
      ] );
    ( "obs.log",
      [
        Alcotest.test_case "level filtering" `Quick test_log_level_filtering;
        Alcotest.test_case "text formatting" `Quick test_log_format_event;
        Alcotest.test_case "json sink parses" `Quick test_log_json_sink_parses;
        Alcotest.test_case "recorder ring" `Quick test_recorder_ring;
        Alcotest.test_case "recorder replay bypasses level" `Quick
          test_recorder_captures_below_level_and_replays;
        Alcotest.test_case "span correlation" `Quick test_log_span_correlation;
      ] );
    ( "obs.openmetrics",
      [
        Alcotest.test_case "name sanitize" `Quick test_openmetrics_name_sanitize;
        Alcotest.test_case "render shape" `Quick test_openmetrics_render_shape;
        Alcotest.test_case "lint rejects malformed" `Quick
          test_openmetrics_lint_rejects;
        qtest prop_openmetrics_render_lints_clean;
      ] );
    ( "obs.span",
      [
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "tracks isolated" `Quick test_span_tracks_isolated;
        Alcotest.test_case "timing and finish" `Quick test_span_timing_and_finish;
        Alcotest.test_case "orphans" `Quick test_span_orphans_reported;
        Alcotest.test_case "late args" `Quick test_span_args_mutable_after_finish;
        Alcotest.test_case "wall clock monotone" `Quick test_wall_clock_monotone;
      ] );
    ( "obs.json",
      [
        Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        qtest prop_json_roundtrip;
        Alcotest.test_case "integral floats stay floats" `Quick
          test_json_integral_floats_stay_floats;
      ] );
    ( "obs.chrome",
      [
        Alcotest.test_case "export shape" `Quick test_chrome_export_shape;
        Alcotest.test_case "counter time series" `Quick
          test_chrome_counter_time_series;
      ] );
    ( "obs.scope",
      [
        Alcotest.test_case "noop when disabled" `Quick test_scope_noop_when_disabled;
        Alcotest.test_case "records" `Quick test_scope_records;
        Alcotest.test_case "sweep equals List.map" `Quick test_sweep_equals_map;
        Alcotest.test_case "sweep lanes decode sequentially" `Quick
          test_sweep_lanes_decode_sequentially;
        Alcotest.test_case "sweep width 1 is the plain loop" `Quick
          test_sweep_sequential_path_untouched;
        Alcotest.test_case "sweep merges lane counters" `Quick
          test_sweep_merges_lane_counters;
        Alcotest.test_case "sweep lane exception reaches caller" `Quick
          test_sweep_lane_exception_reaches_caller;
        Alcotest.test_case "map_lanes failure leaves the pool usable" `Quick
          test_map_lanes_failure_on_caller_owned_pool;
      ] );
    ( "obs.pipeline",
      [
        Alcotest.test_case "diagnosis spans (no scope)" `Quick
          test_diagnosis_spans_without_scope;
        Alcotest.test_case "diagnosis spans (ambient scope)" `Quick
          test_diagnosis_spans_in_scope;
        Alcotest.test_case "scheduler telemetry" `Quick
          test_sim_scheduler_telemetry;
        Alcotest.test_case "telemetry preserves determinism" `Quick
          test_sim_telemetry_preserves_determinism;
        Alcotest.test_case "parallel decode merges worker metrics" `Quick
          test_parallel_decode_merges_worker_metrics;
      ] );
    ( "obs.bench_diff",
      [
        Alcotest.test_case "lower-is-better heuristic" `Quick
          test_bench_diff_lower_is_better;
        Alcotest.test_case "self-diff is clean" `Quick test_bench_diff_self_clean;
        Alcotest.test_case "detects regressions" `Quick
          test_bench_diff_detects_regression;
        Alcotest.test_case "zero baseline" `Quick test_bench_diff_zero_baseline;
        Alcotest.test_case "asymmetric keys" `Quick test_bench_diff_asymmetric_keys;
        Alcotest.test_case "named list elements" `Quick
          test_bench_diff_named_list_elements;
      ] );
  ]
