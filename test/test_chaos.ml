(* Chaos harness smoke tests: a small number of real trials through the
   full inject -> wire -> collector -> diagnosis loop, plus unit checks
   on the fault vocabulary and the injector's bookkeeping. *)

let bug () =
  match Corpus.Registry.find "pbzip2-1" with
  | Some b -> b
  | None -> Alcotest.fail "corpus bug pbzip2-1 missing"

let test_fault_names_roundtrip () =
  List.iter
    (fun cls ->
      match Chaos.Fault.of_name (Chaos.Fault.name cls) with
      | Some cls' ->
        Alcotest.(check string)
          "roundtrip" (Chaos.Fault.name cls) (Chaos.Fault.name cls')
      | None ->
        Alcotest.failf "of_name rejects %s" (Chaos.Fault.name cls))
    Chaos.Fault.all;
  Alcotest.(check (option reject)) "unknown name" None
    (Chaos.Fault.of_name "no-such-fault")

let test_run_rejects_bad_params () =
  let b = bug () in
  (match Chaos.Harness.run ~seeds:0 [ b ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "seeds=0 accepted");
  (match Chaos.Harness.run ~seeds:1 [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty bug list accepted");
  match Chaos.Harness.run ~seeds:1 ~endpoints:0 [ b ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "endpoints=0 accepted"

(* A genuine end-to-end chaos run, small enough for the test suite: every
   fault class, two seeds.  The harness's own gate must hold: no
   invariant violations, no escaping exceptions, deterministic seeds. *)
let test_smoke_all_classes () =
  match Chaos.Harness.run ~seeds:2 [ bug () ] with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check int) "classes covered"
      (List.length Chaos.Fault.all)
      (List.length r.Chaos.Harness.classes);
    Alcotest.(check int) "invariant violations" 0 r.Chaos.Harness.total_violations;
    Alcotest.(check int) "uncaught exceptions" 0 r.Chaos.Harness.total_uncaught;
    Alcotest.(check bool) "gate" true (Chaos.Harness.ok r);
    List.iter
      (fun s ->
        Alcotest.(check int)
          (Chaos.Fault.name s.Chaos.Harness.summary_cls ^ " trials")
          2 s.Chaos.Harness.trials)
      r.Chaos.Harness.classes;
    (* Faults were actually injected, and the payload-preserving classes
       still let the true root cause through. *)
    Alcotest.(check bool) "faults injected" true (r.Chaos.Harness.total_faults > 0);
    List.iter
      (fun s ->
        if Chaos.Fault.payload_preserving s.Chaos.Harness.summary_cls then
          Alcotest.(check int)
            (Chaos.Fault.name s.Chaos.Harness.summary_cls ^ " rc survival")
            2 s.Chaos.Harness.rc_matched_trials)
      r.Chaos.Harness.classes

let test_json_shape () =
  match Chaos.Harness.run ~seeds:1 ~classes:[ Chaos.Fault.Wire_drop ] [ bug () ] with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    let s = Obs.Json.to_string (Chaos.Harness.to_json r) in
    let contains needle =
      let n = String.length needle and l = String.length s in
      let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun needle ->
        if not (contains needle) then
          Alcotest.failf "missing %S in %s" needle s)
      [
        "\"bench\":\"chaos\"";
        "\"class\":\"wire-drop\"";
        "\"total_invariant_violations\"";
        "\"ok\"";
      ]

(* The injector must be a pure function of its Prng: same seed, same
   stream, byte for byte. *)
let prop_inject_deterministic =
  QCheck.Test.make ~name:"inject is deterministic per seed" ~count:30
    QCheck.(pair (int_bound 1_000) (int_bound 8))
    (fun (seed, cls_idx) ->
      let cls = List.nth Chaos.Fault.all cls_idx in
      let b = bug () in
      match
        Fleet.Endpoint.reproduce ~config:Pt.Config.default ~endpoint:0 b
      with
      | Error _ -> QCheck.assume_fail ()
      | Ok baseline ->
        let build () =
          let prng = Snorlax_util.Prng.create ~seed in
          Chaos.Inject.build ~prng ~cls ~endpoints:2 baseline
        in
        let a = build () and b' = build () in
        a.Chaos.Inject.packets = b'.Chaos.Inject.packets
        && a.Chaos.Inject.faults = b'.Chaos.Inject.faults
        && a.Chaos.Inject.failing_sent = b'.Chaos.Inject.failing_sent)

(* One lane per bug: the parallel sweep must be invisible in the output
   — identical report (trials are independent per (bug, class, seed))
   and the same progress lines in the same bug order, just replayed on
   the submitting domain at merge time. *)
let test_parallel_sweep_identical () =
  let bugs =
    List.filter_map Corpus.Registry.find [ "pbzip2-1"; "aget-1" ]
  in
  if List.length bugs <> 2 then Alcotest.fail "corpus bugs missing";
  let classes = [ Chaos.Fault.Wire_drop; Chaos.Fault.Wire_duplicate ] in
  let collect jobs =
    let lines = ref [] in
    match
      Chaos.Harness.run ~seeds:2 ~classes
        ~progress:(fun l -> lines := l :: !lines)
        ~jobs bugs
    with
    | Error msg -> Alcotest.fail msg
    | Ok r -> (r, List.rev !lines)
  in
  let seq_r, seq_lines = collect 1 in
  let par_r, par_lines = collect 4 in
  Alcotest.(check bool) "report identical across jobs" true (seq_r = par_r);
  Alcotest.(check (list string)) "progress replayed in bug order" seq_lines
    par_lines;
  Alcotest.(check bool) "gate holds" true (Chaos.Harness.ok par_r)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "chaos.harness",
      [
        Alcotest.test_case "fault names roundtrip" `Quick
          test_fault_names_roundtrip;
        Alcotest.test_case "run rejects bad params" `Quick
          test_run_rejects_bad_params;
        Alcotest.test_case "smoke: all classes, gate holds" `Slow
          test_smoke_all_classes;
        Alcotest.test_case "bench json shape" `Quick test_json_shape;
        Alcotest.test_case "parallel sweep identical" `Slow
          test_parallel_sweep_identical;
        qtest prop_inject_deterministic;
      ] );
  ]
