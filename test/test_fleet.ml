(* The fleet subsystem: wire-format round-trips (including on corrupt
   input, which must return Error and never raise), signature dedup,
   the collector's sampling and success-routing policies, and a small
   end-to-end deployment whose cross-endpoint diagnosis must land on the
   known root cause. *)

module Report = Snorlax_core.Report
module Wire = Fleet.Wire
module Collector = Fleet.Collector

(* --- fixtures ------------------------------------------------------------ *)

let sample_traces =
  [ (0, Bytes.of_string "\x01\x02\x03ring"); (2, Bytes.of_string "") ]

let crash_report =
  {
    Report.info =
      Report.Crash_info { failing_iid = 51; crash_kind = Report.Bad_pointer };
    failing_tid = 1;
    failure_time_ns = 123_456;
    traces = sample_traces;
  }

let deadlock_report =
  {
    Report.info = Report.Deadlock_info { blocked = [ (0, 7); (1, 9) ] };
    failing_tid = 1;
    failure_time_ns = 42;
    traces = [ (1, Bytes.of_string "x") ];
  }

let success_report =
  {
    Report.s_traces = sample_traces;
    trigger_time_ns = 99;
    trigger_tid = 0;
    trigger_pc = 0x10d4;
  }

let envelope ?prov payload =
  {
    Wire.endpoint = 3;
    seed = 1717;
    bug_id = "pbzip2-1";
    config = Pt.Config.default;
    prov;
    payload;
  }

let sample_prov = { Wire.runs = 37; sync_ops = 412; sync_digest = 0x5eed1a2b }

let check_roundtrip name env =
  match Wire.decode (Wire.encode env) with
  | Error msg -> Alcotest.failf "%s: decode error: %s" name msg
  | Ok got ->
    Alcotest.(check int) (name ^ " endpoint") env.Wire.endpoint got.Wire.endpoint;
    Alcotest.(check int) (name ^ " seed") env.Wire.seed got.Wire.seed;
    Alcotest.(check string) (name ^ " bug id") env.Wire.bug_id got.Wire.bug_id;
    Alcotest.(check bool)
      (name ^ " config") true
      (got.Wire.config.Pt.Config.buffer_size
       = env.Wire.config.Pt.Config.buffer_size
      && got.Wire.config.Pt.Config.timing = env.Wire.config.Pt.Config.timing
      && got.Wire.config.Pt.Config.psb_period_bytes
         = env.Wire.config.Pt.Config.psb_period_bytes);
    Alcotest.(check bool)
      (name ^ " provenance") true (got.Wire.prov = env.Wire.prov);
    Alcotest.(check bool)
      (name ^ " payload") true
      (match (env.Wire.payload, got.Wire.payload) with
      | Wire.Failing a, Wire.Failing b -> a = b
      | Wire.Success a, Wire.Success b -> a = b
      | _ -> false)

(* --- wire round-trips ---------------------------------------------------- *)

let test_wire_roundtrip_crash () =
  check_roundtrip "crash" (envelope (Wire.Failing crash_report))

let test_wire_roundtrip_deadlock () =
  check_roundtrip "deadlock" (envelope (Wire.Failing deadlock_report))

let test_wire_roundtrip_success () =
  check_roundtrip "success" (envelope (Wire.Success success_report))

let test_wire_roundtrip_provenance () =
  check_roundtrip "provenance"
    (envelope ~prov:sample_prov (Wire.Failing crash_report))

let test_wire_v1_rejected () =
  (* Version 1 (no provenance block) is retired: a packet with its header
     is malformed, and the collector counts it as a decode error. *)
  let packet = Wire.encode (envelope (Wire.Success success_report)) in
  Bytes.set packet 0 '\x01';
  Alcotest.(check bool) "v1 header is Error" true
    (Result.is_error (Wire.decode packet));
  let t = Collector.create () in
  Alcotest.(check bool) "ingest rejects it" true
    (Result.is_error (Collector.ingest t packet));
  let totals = Collector.totals t in
  Alcotest.(check int) "counted as a decode error" 1
    totals.Collector.decode_errors;
  Alcotest.(check int) "received" 1 totals.Collector.received

let test_wire_roundtrip_timing_modes () =
  List.iter
    (fun timing ->
      check_roundtrip "timing mode"
        (envelope (Wire.Failing crash_report)
        |> fun e ->
        { e with Wire.config = { e.Wire.config with Pt.Config.timing } }))
    [
      Pt.Config.Cyc_and_mtc { mtc_period_ns = 64 };
      Pt.Config.Mtc_only { mtc_period_ns = 2048 };
      Pt.Config.No_timing;
    ]

let gen_envelope =
  QCheck.Gen.(
    let* endpoint = int_bound 1000 in
    let* seed = int in
    let* bug_id = string_size ~gen:printable (int_bound 20) in
    let* n_traces = int_bound 3 in
    let* traces =
      list_size (return n_traces)
        (pair (int_bound 8) (map Bytes.of_string (string_size (int_bound 50))))
    in
    let* failing = bool in
    let* payload =
      if failing then
        let* iid = int_bound 10_000 in
        let* tid = int_bound 16 in
        let* time = int_bound 1_000_000_000 in
        return
          (Wire.Failing
             {
               Report.info =
                 Report.Crash_info
                   { failing_iid = iid; crash_kind = Report.Use_after_free };
               failing_tid = tid;
               failure_time_ns = time;
               traces;
             })
      else
        let* tid = int_bound 16 in
        let* pc = int_bound 1_000_000 in
        let* time = int_bound 1_000_000_000 in
        return
          (Wire.Success
             {
               Report.s_traces = traces;
               trigger_time_ns = time;
               trigger_tid = tid;
               trigger_pc = pc;
             })
    in
    let* prov =
      let* has_prov = bool in
      if not has_prov then return None
      else
        let* runs = int_bound 100_000 in
        let* sync_ops = int_bound 1_000_000 in
        let* sync_digest = int_bound max_int in
        return (Some { Wire.runs; sync_ops; sync_digest })
    in
    return
      {
        Wire.endpoint;
        seed;
        bug_id;
        config = Pt.Config.default;
        prov;
        payload;
      })

let prop_wire_roundtrip =
  QCheck.Test.make ~name:"Wire round-trips arbitrary envelopes" ~count:300
    (QCheck.make gen_envelope)
    (fun env ->
      match Wire.decode (Wire.encode env) with
      | Ok got -> got = env
      | Error _ -> false)

(* --- corrupt input: Error, never an exception ---------------------------- *)

let decode_total b =
  match Wire.decode b with
  | Ok _ -> `Ok
  | Error _ -> `Error
  | exception _ -> `Raised

let test_wire_truncations () =
  (* Every proper prefix of a valid packet must decode to Error — with a
     provenance block present so its truncations are covered too. *)
  let full = Wire.encode (envelope ~prov:sample_prov (Wire.Failing crash_report)) in
  for len = 0 to Bytes.length full - 1 do
    match decode_total (Bytes.sub full 0 len) with
    | `Error -> ()
    | `Ok -> Alcotest.failf "prefix of %d bytes decoded Ok" len
    | `Raised -> Alcotest.failf "prefix of %d bytes raised" len
  done

let test_wire_bad_version () =
  let full = Wire.encode (envelope (Wire.Success success_report)) in
  Bytes.set full 0 '\x7f';
  Alcotest.(check bool) "bad version is Error" true (decode_total full = `Error)

let test_wire_trailing_garbage () =
  let full = Wire.encode (envelope (Wire.Success success_report)) in
  let padded = Bytes.cat full (Bytes.of_string "\x00") in
  Alcotest.(check bool) "trailing garbage is Error" true
    (decode_total padded = `Error)

let test_wire_empty () =
  Alcotest.(check bool) "empty is Error" true
    (decode_total Bytes.empty = `Error)

let prop_wire_corrupt_never_raises =
  QCheck.Test.make ~name:"Wire.decode is total on random bytes" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s -> decode_total (Bytes.of_string s) <> `Raised)

let prop_wire_flip_never_raises =
  (* Single-byte corruption of a real packet: decode may succeed or fail,
     but must not raise. *)
  QCheck.Test.make ~name:"Wire.decode survives single-byte corruption"
    ~count:300
    QCheck.(pair small_nat (int_bound 255))
    (fun (pos, byte) ->
      let b = Wire.encode (envelope (Wire.Failing crash_report)) in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr byte);
      decode_total b <> `Raised)

(* --- collector ----------------------------------------------------------- *)

(* A real failing report (with decodable rings) for collector tests:
   reproduce pbzip2-1 once per "endpoint" seed range. *)
let collected_fixture =
  lazy
    (let bug = Corpus.Registry.find_exn "pbzip2-1" in
     match
       Corpus.Runner.collect bug ~success_per_failing:2 ~seed_base:1 ()
     with
     | Ok c -> (bug, c)
     | Error msg -> Alcotest.failf "fixture: %s" msg)

let ship collector env =
  match Collector.ingest collector (Wire.encode env) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "ingest: %s" msg

let real_envelope ?(endpoint = 0) ?prov payload =
  let bug, _ = Lazy.force collected_fixture in
  {
    Wire.endpoint;
    seed = 1;
    bug_id = bug.Corpus.Bug.id;
    config = Pt.Config.default;
    prov;
    payload;
  }

let test_collector_dedup () =
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let t = Collector.create () in
  ship t (real_envelope ~endpoint:0 (Wire.Failing failing));
  ship t (real_envelope ~endpoint:5 (Wire.Failing failing));
  match Collector.buckets t with
  | [ b ] ->
    Alcotest.(check int) "one bucket, two endpoints" 2
      (List.length b.Collector.endpoints);
    Alcotest.(check int) "both kept" 2 (Collector.failing_kept b);
    Alcotest.(check int) "failing received" 2
      (Collector.totals t).Collector.failing_received
  | bs -> Alcotest.failf "expected 1 bucket, got %d" (List.length bs)

let test_collector_sampling () =
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let t =
    Collector.create
      ~policy:{ Collector.max_failing = 1; max_success = 1; max_pending = 64 }
      ()
  in
  for e = 0 to 3 do
    ship t (real_envelope ~endpoint:e (Wire.Failing failing))
  done;
  List.iter
    (fun s -> ship t (real_envelope ~endpoint:9 (Wire.Success s)))
    c.Corpus.Runner.successful;
  let b = List.hd (Collector.buckets t) in
  Alcotest.(check int) "kept first failing" 1 (Collector.failing_kept b);
  Alcotest.(check int) "dropped the rest" 3 (Collector.failing_dropped b);
  Alcotest.(check int) "kept first success" 1 (Collector.success_kept b);
  Alcotest.(check int) "dropped second success" 1 (Collector.success_dropped b);
  Alcotest.(check int) "all 4 endpoints counted" 5
    (List.length b.Collector.endpoints)

let test_collector_routes_early_success () =
  (* A success shipped before any failing report is held, then claimed
     when the failure's bucket appears. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let success = List.hd c.Corpus.Runner.successful in
  let t = Collector.create () in
  ship t (real_envelope ~endpoint:1 (Wire.Success success));
  Alcotest.(check int) "held while unrouted" 1
    (Collector.totals t).Collector.unrouted;
  ship t (real_envelope ~endpoint:0 (Wire.Failing failing));
  let b = List.hd (Collector.buckets t) in
  Alcotest.(check int) "claimed on bucket creation" 1
    (Collector.success_kept b);
  Alcotest.(check int) "nothing pending" 0
    (Collector.totals t).Collector.unrouted

let test_collector_rejects_unknown_bug () =
  let t = Collector.create () in
  let env =
    { (envelope (Wire.Failing crash_report)) with Wire.bug_id = "nope-1" }
  in
  (match Collector.ingest t (Wire.encode env) with
  | Ok () -> Alcotest.fail "unknown bug id accepted"
  | Error _ -> ());
  Alcotest.(check int) "counted as decode error" 1
    (Collector.totals t).Collector.decode_errors

let test_collector_rejects_garbage () =
  let t = Collector.create () in
  (match Collector.ingest t (Bytes.of_string "not a packet") with
  | Ok () -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  Alcotest.(check int) "received counted" 1 (Collector.totals t).Collector.received;
  Alcotest.(check int) "decode error counted" 1
    (Collector.totals t).Collector.decode_errors

let test_collector_pending_pool_bounded () =
  (* Successes that never route (no bucket ever matches their trigger pc)
     must not accumulate forever: the pending pool is capped per bug. *)
  let t = Collector.create () in
  for i = 1 to 200 do
    ship t
      (real_envelope ~endpoint:(i mod 7)
         (Wire.Success { success_report with Report.trigger_time_ns = i }))
  done;
  let totals = Collector.totals t in
  let cap = Collector.default_policy.Collector.max_pending in
  Alcotest.(check int)
    (Printf.sprintf "pending pool bounded (%d held)" totals.Collector.unrouted)
    cap totals.Collector.unrouted;
  Alcotest.(check int) "evictions counted" (200 - cap)
    totals.Collector.pending_dropped;
  Alcotest.(check int) "all 200 still counted as received" 200
    totals.Collector.success_received

(* Every packet the collector ever received is accounted for exactly once:
   rejected, kept-or-dropped in a bucket, still pending, or evicted. *)
let sum_seen t =
  List.fold_left
    (fun acc (b : Collector.bucket) ->
      acc + b.Collector.failing_seen + b.Collector.success_seen)
    0 (Collector.buckets t)

let check_reconciled name t =
  let totals = Collector.totals t in
  Alcotest.(check int) name totals.Collector.received
    (totals.Collector.decode_errors + sum_seen t + totals.Collector.unrouted
   + totals.Collector.pending_dropped)

let test_collector_arrival_order () =
  (* The collector keeps reports in fleet arrival order even though the
     internal lists are consed newest-first. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let success = List.hd c.Corpus.Runner.successful in
  let t = Collector.create () in
  List.iter
    (fun i ->
      ship t
        (real_envelope ~endpoint:i
           (Wire.Failing { failing with Report.failure_time_ns = i })))
    [ 1; 2; 3 ];
  List.iter
    (fun i ->
      ship t
        (real_envelope ~endpoint:i
           (Wire.Success { success with Report.trigger_time_ns = i })))
    [ 7; 8; 9 ];
  let b = List.hd (Collector.buckets t) in
  Alcotest.(check (list int))
    "failing kept in arrival order" [ 1; 2; 3 ]
    (List.map
       (fun (r : Report.failing_report) -> r.Report.failure_time_ns)
       (Collector.failing b));
  Alcotest.(check (list int))
    "successes kept in arrival order" [ 7; 8; 9 ]
    (List.map
       (fun (r : Report.success_report) -> r.Report.trigger_time_ns)
       (Collector.successful b))

let test_collector_out_of_order_duplicates () =
  (* Wire-level mischief: a success arrives before its failure, the same
     failing packet is delivered twice, a success is duplicated, and a
     garbage packet lands in between.  Everything must end up in one
     bucket with counters that reconcile. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let success = List.hd c.Corpus.Runner.successful in
  let t = Collector.create () in
  ship t (real_envelope ~endpoint:1 (Wire.Success success));
  ship t (real_envelope ~endpoint:0 (Wire.Failing failing));
  ship t (real_envelope ~endpoint:0 (Wire.Failing failing));
  ship t (real_envelope ~endpoint:1 (Wire.Success success));
  ignore (Collector.ingest t (Bytes.of_string "garbage"));
  match Collector.buckets t with
  | [ b ] ->
    Alcotest.(check int) "both failing deliveries kept" 2
      (Collector.failing_kept b);
    Alcotest.(check int) "both success deliveries kept" 2
      (Collector.success_kept b);
    Alcotest.(check int) "garbage counted" 1
      (Collector.totals t).Collector.decode_errors;
    Alcotest.(check int) "nothing left pending" 0
      (Collector.totals t).Collector.unrouted;
    check_reconciled "counters reconcile" t
  | bs -> Alcotest.failf "expected 1 bucket, got %d" (List.length bs)

let test_collector_counters_reconcile () =
  (* A mixed stream — unroutable successes overflowing a tiny pending
     pool, garbage, repeated failures, routable successes — reconciles:
     received = decode_errors + seen-in-buckets + pending + evicted. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let success = List.hd c.Corpus.Runner.successful in
  let t =
    Collector.create
      ~policy:{ Collector.default_policy with Collector.max_pending = 3 }
      ()
  in
  for i = 1 to 10 do
    (* trigger pc matching no watchpoint set: held forever, then evicted *)
    ship t
      (real_envelope ~endpoint:(i mod 4)
         (Wire.Success
            { success with Report.trigger_pc = 0xdead; trigger_time_ns = i }))
  done;
  ignore (Collector.ingest t (Bytes.of_string "junk"));
  ignore (Collector.ingest t (Bytes.of_string ""));
  for e = 0 to 2 do
    ship t (real_envelope ~endpoint:e (Wire.Failing failing))
  done;
  ship t (real_envelope ~endpoint:0 (Wire.Success success));
  ship t (real_envelope ~endpoint:1 (Wire.Success success));
  let totals = Collector.totals t in
  Alcotest.(check int) "received" 17 totals.Collector.received;
  Alcotest.(check int) "decode errors" 2 totals.Collector.decode_errors;
  Alcotest.(check int) "pending now" 3 totals.Collector.unrouted;
  Alcotest.(check int) "evicted" 7 totals.Collector.pending_dropped;
  Alcotest.(check int) "seen in buckets" 5 (sum_seen t);
  check_reconciled "counters reconcile" t

(* --- the routing rule on its own ------------------------------------------ *)

module Routes = Fleet.Routes

let route_for key pcs =
  {
    Routes.signature =
      {
        Fleet.Signature.bug_id = "b";
        kind = "assert";
        failing_pc = List.hd pcs;
        block_stack = [];
      };
    key;
    watch_pcs = lazy pcs;
  }

let claim r key pcs target =
  Routes.claim r (route_for key pcs) ~fresh:(fun () -> target)

let hold_all r items =
  List.iter
    (fun (pc, item) ->
      Alcotest.(check (option string))
        (Printf.sprintf "item %d held" item)
        None
        (Routes.route r ~bug_id:"b" ~pc item))
    items

let released = Alcotest.(list (pair string int))

let test_routes_oldest_wins () =
  let r = Routes.create ~max_pending:8 ~name:"test/pending" in
  ignore (claim r "k1" [ 10; 20 ] "old");
  ignore (claim r "k2" [ 20; 30 ] "new");
  Alcotest.(check (option string)) "shared pc: the oldest route wins"
    (Some "old") (Routes.route r ~bug_id:"b" ~pc:20 0);
  Alcotest.(check (option string)) "own pc" (Some "new")
    (Routes.route r ~bug_id:"b" ~pc:30 0);
  Alcotest.(check (option string)) "routes are per bug" None
    (Routes.route r ~bug_id:"c" ~pc:20 0);
  let target, rel =
    Routes.claim r (route_for "k2" [ 99 ]) ~fresh:(fun () ->
        Alcotest.fail "a known key made a fresh target")
  in
  Alcotest.(check string) "a known key keeps its target" "new" target;
  Alcotest.check released "and releases nothing" [] rel;
  Alcotest.(check (option string)) "nor adds a route" None
    (Routes.route r ~bug_id:"b" ~pc:99 0)

let test_routes_release_order () =
  let r = Routes.create ~max_pending:8 ~name:"test/pending" in
  hold_all r [ (10, 1); (99, 2); (20, 3); (99, 4); (10, 5) ];
  Alcotest.(check int) "all held" 5 (Routes.held r);
  let target, rel = claim r "k1" [ 10; 20 ] "t" in
  Alcotest.(check string) "fresh target" "t" target;
  Alcotest.check released "claimed items released oldest first"
    [ ("t", 1); ("t", 3); ("t", 5) ]
    rel;
  Alcotest.(check (list (pair string int))) "the rest stay held"
    [ ("b", 2) ] (Routes.pools r);
  let _, rel = claim r "k2" [ 99 ] "u" in
  Alcotest.check released "in their order" [ ("u", 2); ("u", 4) ] rel;
  Alcotest.(check int) "pool empty" 0 (Routes.held r);
  Alcotest.(check (list (pair string int))) "no empty pools listed" []
    (Routes.pools r);
  Alcotest.(check int) "nothing evicted" 0 (Routes.dropped r)

let test_routes_evictions_counted () =
  let r = Routes.create ~max_pending:2 ~name:"test/pending" in
  hold_all r [ (10, 1); (10, 2); (10, 3); (10, 4); (10, 5) ];
  Alcotest.(check int) "capped" 2 (Routes.held r);
  Alcotest.(check int) "evictions counted" 3 (Routes.dropped r);
  let _, rel = claim r "k1" [ 10 ] "t" in
  Alcotest.check released "the newest survive, released oldest first"
    [ ("t", 4); ("t", 5) ]
    rel

let test_routes_cap_zero () =
  let r = Routes.create ~max_pending:0 ~name:"test/pending" in
  hold_all r [ (10, 1) ];
  Alcotest.(check int) "holds nothing" 0 (Routes.held r);
  Alcotest.(check int) "the item is evicted" 1 (Routes.dropped r);
  Alcotest.(check (list (pair string int))) "no pool" [] (Routes.pools r);
  let _, rel = claim r "k1" [ 10 ] "t" in
  Alcotest.check released "nothing to release" [] rel;
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Routes.create: max_pending < 0") (fun () ->
      ignore (Routes.create ~max_pending:(-1) ~name:"test/pending"));
  (* The collector takes the same cap: an early success is evicted at
     once and its bucket starts empty. *)
  let _, c = Lazy.force collected_fixture in
  let t =
    Collector.create
      ~policy:{ Collector.default_policy with Collector.max_pending = 0 }
      ()
  in
  ship t (real_envelope (Wire.Success (List.hd c.Corpus.Runner.successful)));
  ship t (real_envelope (Wire.Failing (List.hd c.Corpus.Runner.failing)));
  let totals = Collector.totals t in
  Alcotest.(check int) "collector holds nothing" 0 totals.Collector.unrouted;
  Alcotest.(check int) "collector evicted it" 1 totals.Collector.pending_dropped;
  Alcotest.(check int) "bucket has no success" 0
    (Collector.success_kept (List.hd (Collector.buckets t)))

(* --- provenance mining --------------------------------------------------- *)

let test_collector_qualifiers () =
  (* Failing runs stop syncing early (low sync_ops, one digest); healthy
     runs sync hundreds of times.  The miner must find a discriminating
     feature with full failing coverage and no successful coverage. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let success = List.hd c.Corpus.Runner.successful in
  let t = Collector.create () in
  List.iter
    (fun e ->
      ship t
        (real_envelope ~endpoint:e
           ~prov:{ Wire.runs = 40; sync_ops = 10 + e; sync_digest = 1 }
           (Wire.Failing failing)))
    [ 0; 1; 2 ];
  List.iter
    (fun e ->
      ship t
        (real_envelope ~endpoint:e
           ~prov:{ Wire.runs = 40; sync_ops = 500 + e; sync_digest = 2 }
           (Wire.Success success)))
    [ 3; 4; 5 ];
  let b = List.hd (Collector.buckets t) in
  match Collector.qualifiers b with
  | [] -> Alcotest.fail "no qualifier mined from a clean split"
  | q :: _ as qs ->
    Alcotest.(check bool) "at most 3 qualifiers" true (List.length qs <= 3);
    Alcotest.(check bool)
      (Printf.sprintf "strong discrimination (%s)"
         (Collector.qualifier_to_string q))
      true
      (q.Collector.q_fail_frac >= 0.75 && q.Collector.q_succ_frac <= 0.25)

let test_collector_qualifiers_need_both_sides () =
  (* With a single failing report every feature discriminates trivially;
     the miner must stay silent below 2 samples per side. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let t = Collector.create () in
  ship t
    (real_envelope ~endpoint:0
       ~prov:{ Wire.runs = 1; sync_ops = 3; sync_digest = 9 }
       (Wire.Failing failing));
  let b = List.hd (Collector.buckets t) in
  Alcotest.(check int) "no qualifiers from one report" 0
    (List.length (Collector.qualifiers b))

let test_collector_routes_without_provenance () =
  (* An envelope with [prov = None] still routes: its reports are kept,
     and with every feature shared by both sides nothing discriminates,
     so no qualifier is mined. *)
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let t = Collector.create () in
  for _ = 1 to 2 do
    ship t (real_envelope (Wire.Failing failing))
  done;
  List.iter
    (fun s -> ship t (real_envelope (Wire.Success s)))
    c.Corpus.Runner.successful;
  let b = List.hd (Collector.buckets t) in
  Alcotest.(check int) "failing kept" 2 (Collector.failing_kept b);
  Alcotest.(check int) "successes routed"
    (List.length c.Corpus.Runner.successful)
    (Collector.success_kept b);
  Alcotest.(check int) "nothing unrouted" 0
    (Collector.totals t).Collector.unrouted;
  Alcotest.(check int) "no qualifiers" 0 (List.length (Collector.qualifiers b))

(* The reason the decode cache exists: the collector re-diagnoses a bucket
   as reports trickle in, and every re-run decodes the same rings.  A warm
   re-diagnosis must invoke the decoder at most half as often as the cold
   one (here: not at all — every snapshot is byte-identical). *)
let test_rediagnosis_reuses_decodes () =
  let _, c = Lazy.force collected_fixture in
  let failing = List.hd c.Corpus.Runner.failing in
  let t = Collector.create () in
  for e = 0 to 2 do
    ship t (real_envelope ~endpoint:e (Wire.Failing failing))
  done;
  List.iter
    (fun s -> ship t (real_envelope (Wire.Success s)))
    c.Corpus.Runner.successful;
  let b = List.hd (Collector.buckets t) in
  let shared = Pt.Decode_cache.shared in
  Pt.Decode_cache.clear shared;
  ignore (Collector.diagnose t b);
  let s1 = Pt.Decode_cache.stats shared in
  ignore (Collector.diagnose t b);
  let s2 = Pt.Decode_cache.stats shared in
  let cold = s1.Pt.Decode_cache.misses in
  let warm = s2.Pt.Decode_cache.misses - cold in
  Alcotest.(check bool) "cold run decoded something" true (cold > 0);
  Alcotest.(check bool)
    (Printf.sprintf "re-diagnosis decodes at most half (cold %d, warm %d)"
       cold warm)
    true
    (2 * warm <= cold);
  Alcotest.(check bool) "cache hits prove the reuse" true
    (s2.Pt.Decode_cache.hits - s1.Pt.Decode_cache.hits > 0)

(* --- end to end ---------------------------------------------------------- *)

module Deploy = Stream.Deploy

let test_fleet_end_to_end () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let s = Deploy.once ~endpoints:3 [ bug ] in
  Alcotest.(check int) "no decode errors" 0 s.Deploy.ingest_errors;
  Alcotest.(check int) "no unrouted successes" 0 s.Deploy.unrouted;
  Alcotest.(check bool) "some bytes crossed the wire" true
    (s.Deploy.wire_bytes > 0);
  Alcotest.(check bool) "stream gates hold" true
    (s.Deploy.agree && s.Deploy.accounted && s.Deploy.leftover_queue = 0);
  match s.Deploy.rows with
  | [ r ] ->
    Alcotest.(check int) "all endpoints in one bucket" 3 r.Deploy.endpoints_hit;
    Alcotest.(check bool) "dedup collapsed the fleet" true
      (s.Deploy.dedup_ratio >= 3.0);
    Alcotest.(check bool) "diagnosed" true (r.Deploy.top_pattern <> None);
    Alcotest.(check bool) "root cause matches ground truth" true
      r.Deploy.root_cause_match;
    Alcotest.(check bool) "report->diagnosis p50 measured" true
      (s.Deploy.latency_p50_ns > 0.0);
    Alcotest.(check bool) "p99 >= p50" true
      (s.Deploy.latency_p99_ns >= s.Deploy.latency_p50_ns)
  | rows -> Alcotest.failf "expected 1 bucket, got %d" (List.length rows)

let test_deploy_rejects_zero_endpoints () =
  Alcotest.check_raises "endpoints < 1"
    (Invalid_argument "Stream.Deploy.once: endpoints < 1") (fun () ->
      ignore (Deploy.once ~endpoints:0 []))

let test_deploy_zero_buckets () =
  (* An empty scenario list is a legal (if pointless) deployment: every
     per-bucket average must come back 0.0, not a 0/0 NaN. *)
  let s = Deploy.once ~endpoints:2 [] in
  Alcotest.(check int) "no buckets" 0 s.Deploy.bucket_count;
  Alcotest.(check (float 0.0)) "dedup ratio guarded" 0.0 s.Deploy.dedup_ratio;
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " is a number") false (Float.is_nan v))
    [
      ("dedup_ratio", s.Deploy.dedup_ratio);
      ("latency_p50_ns", s.Deploy.latency_p50_ns);
      ("latency_p99_ns", s.Deploy.latency_p99_ns);
      ("diagnosis_ns", s.Deploy.diagnosis_ns);
      ("reports_per_sec", s.Deploy.reports_per_sec);
    ]

let test_deploy_tick_hook () =
  (* The ?tick hook behind --watch: once per shipment, in shipment
     order, cumulative counts monotone, and the rendered line
     well-formed. *)
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let seen = ref [] in
  let s =
    Deploy.once ~endpoints:3 ~tick:(fun p -> seen := p :: !seen) [ bug ]
  in
  let ticks = List.rev !seen in
  Alcotest.(check (list int))
    "one tick per shipment, in order" [ 1; 2; 3 ]
    (List.map (fun p -> p.Deploy.p_tick) ticks);
  let offered = List.map (fun p -> p.Deploy.p_offered) ticks in
  let drained = List.map (fun p -> p.Deploy.p_drained) ticks in
  Alcotest.(check bool) "counts monotone" true
    (List.sort compare offered = offered
    && List.sort compare drained = drained);
  Alcotest.(check int) "last tick saw the whole fleet's packets"
    s.Deploy.offered
    (List.nth offered (List.length offered - 1));
  List.iter
    (fun p ->
      let line = Deploy.watch_line p in
      Alcotest.(check bool)
        (Printf.sprintf "watch line renders (%s)" line)
        true
        (String.length line > 8 && String.sub line 0 8 = "[stream]"))
    ticks

(* The reference for the one-shot fleet on the stream plane: one
   collector fed the same [Endpoint.run] shipments in the same order,
   each bucket diagnosed from scratch, must give every bucket the same
   row — sharding, the tracker's routing and the incremental engine
   change nothing a row reports. *)
let test_once_matches_one_collector () =
  let bugs = Corpus.Registry.eval_set in
  let endpoints = 6 in
  let s = Deploy.once ~endpoints bugs in
  let c = Collector.create () in
  List.iter
    (fun bug ->
      for endpoint = 0 to endpoints - 1 do
        List.iter
          (fun p -> ignore (Collector.ingest c p))
          (Fleet.Endpoint.run ~bug ~endpoint).Fleet.Endpoint.packets
      done)
    bugs;
  let reference =
    List.map
      (fun (b : Collector.bucket) ->
        let top = (Collector.diagnose c b).Snorlax_core.Diagnosis.top in
        let v = Collector.verdict c b top in
        ( b.Collector.signature.Fleet.Signature.bug_id,
          Fleet.Signature.to_string b.Collector.signature,
          List.length b.Collector.endpoints,
          ( Collector.failing_kept b,
            Collector.failing_dropped b,
            Collector.success_kept b,
            Collector.success_dropped b ),
          b.Collector.wire_bytes,
          List.map Collector.qualifier_to_string (Collector.qualifiers b),
          ( v.Collector.top_pattern,
            v.Collector.f1,
            v.Collector.root_cause_match,
            v.Collector.ordering_accuracy ) ))
      (Collector.buckets c)
  in
  let rows =
    List.map
      (fun (r : Deploy.bucket_row) ->
        ( r.Deploy.bug_id,
          r.Deploy.signature,
          r.Deploy.endpoints_hit,
          ( r.Deploy.failing_kept,
            r.Deploy.failing_dropped,
            r.Deploy.success_kept,
            r.Deploy.success_dropped ),
          r.Deploy.wire_bytes,
          r.Deploy.qualifiers,
          ( r.Deploy.top_pattern,
            r.Deploy.f1,
            r.Deploy.root_cause_match,
            r.Deploy.ordering_accuracy ) ))
      s.Deploy.rows
  in
  Alcotest.(check int) "bucket count" (List.length reference)
    (List.length rows);
  Alcotest.(check bool) "every row, in creation order" true (rows = reference);
  let totals = Collector.totals c in
  Alcotest.(check int) "packets" totals.Collector.received s.Deploy.offered;
  Alcotest.(check int) "wire bytes" totals.Collector.wire_bytes
    s.Deploy.wire_bytes;
  Alcotest.(check int) "decode errors" totals.Collector.decode_errors
    s.Deploy.ingest_errors;
  Alcotest.(check int) "unrouted" totals.Collector.unrouted s.Deploy.unrouted;
  Alcotest.(check bool) "incremental == batch, accounted, drained" true
    (s.Deploy.agree && s.Deploy.accounted && s.Deploy.leftover_queue = 0);
  Alcotest.(check int) "nothing shed" 0 s.Deploy.shed

(* The satellite property for the v2 wire format: provenance survives
   the packet stream treatment a real fleet gives it — packets get
   duplicated and reordered in flight, and each copy must still decode
   to exactly the provenance it was encoded with. *)
let prop_wire_stream_preserves_provenance =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* provs =
        list_size (return n)
          (triple (int_bound 100_000) (int_bound 1_000_000) (int_bound max_int))
      in
      let* shuffle_seed = int_bound 10_000 in
      return (provs, shuffle_seed))
  in
  QCheck.Test.make
    ~name:"Wire v2 provenance survives duplication and reordering" ~count:100
    (QCheck.make gen)
    (fun (provs, shuffle_seed) ->
      let packets =
        List.mapi
          (fun i (runs, sync_ops, sync_digest) ->
            let env =
              {
                (envelope ~prov:{ Wire.runs; sync_ops; sync_digest }
                   (Wire.Failing crash_report))
                with
                Wire.endpoint = i;
              }
            in
            Wire.encode env)
          provs
      in
      (* duplicate every packet, then shuffle the doubled stream *)
      let stream = Array.of_list (packets @ packets) in
      let prng = Snorlax_util.Prng.create ~seed:shuffle_seed in
      Snorlax_util.Prng.shuffle prng stream;
      let decoded =
        Array.to_list stream
        |> List.map (fun b ->
               match Wire.decode b with
               | Ok e -> (e.Wire.endpoint, e.Wire.prov)
               | Error msg -> QCheck.Test.fail_reportf "decode: %s" msg)
      in
      let expect =
        List.concat_map
          (fun l -> [ l; l ])
          (List.mapi
             (fun i (runs, sync_ops, sync_digest) ->
               (i, Some { Wire.runs; sync_ops; sync_digest }))
             provs)
      in
      List.sort compare decoded = List.sort compare expect)

let qtest = QCheck_alcotest.to_alcotest

(* --- signature walk == reference filter ----------------------------------- *)

(* The crash signature's block stack as it was first written: every
   decoded step resolved through [block_at_pc], kept when it is its
   block's start pc, and the last [stack_depth] of those kept.  The
   bounded backward walk must agree with it on every input. *)
let reference_block_stack m steps =
  let entries =
    List.filter_map
      (fun (s : Pt.Decoder.step) ->
        match Lir.Irmod.block_at_pc m s.Pt.Decoder.pc with
        | f, b ->
          let start =
            Lir.Irmod.block_start_pc m ~fname:f.Lir.Func.fname
              ~label:b.Lir.Block.label
          in
          if start = s.Pt.Decoder.pc then Some s.Pt.Decoder.pc else None
        | exception _ -> None)
      (Array.to_list steps)
  in
  let n = List.length entries in
  List.filteri (fun i _ -> i >= n - Fleet.Signature.stack_depth) entries

let reference_signature m ~config ~bug_id (r : Report.failing_report) =
  let i = Lir.Irmod.instr_by_iid m (Report.failing_anchor_iid r) in
  let block_stack =
    match List.assoc_opt r.Report.failing_tid r.Report.traces with
    | None -> []
    | Some ring -> (
      match Pt.Decoder.decode m ~config ring with
      | d -> reference_block_stack m d.Pt.Decoder.steps
      | exception _ -> [])
  in
  {
    Fleet.Signature.bug_id;
    kind = Report.kind_label r;
    failing_pc = i.Lir.Instr.pc;
    block_stack;
  }

(* Returns the signature's key. *)
let check_signature_matches_reference name m ~config ~bug_id r =
  match Fleet.Signature.of_failing m ~config ~bug_id r with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok s ->
    let expect = reference_signature m ~config ~bug_id r in
    Alcotest.(check (list int))
      (name ^ ": block stack") expect.Fleet.Signature.block_stack
      s.Fleet.Signature.block_stack;
    Alcotest.(check string)
      (name ^ ": key") (Fleet.Signature.key expect) (Fleet.Signature.key s);
    Fleet.Signature.key s

(* Every corpus bug's failing report, intact and as each content-damaging
   chaos class leaves it, plus the walk alone on every ring decoded up to
   the failing thread's tail. *)
let test_signature_walk_matches_reference () =
  let damaging =
    List.filter (fun c -> not (Chaos.Fault.payload_preserving c)) Chaos.Fault.all
  in
  let moved = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Corpus.Runner.collect bug ~success_per_failing:1 () with
      | Error e -> Alcotest.failf "%s: %s" bug.Corpus.Bug.id e
      | Ok c ->
        let m = c.Corpus.Runner.built.Corpus.Bug.m in
        let config = Pt.Config.default in
        let bug_id = bug.Corpus.Bug.id in
        List.iter
          (fun (r : Report.failing_report) ->
            let intact =
              check_signature_matches_reference bug_id m ~config ~bug_id r
            in
            let tail_stop =
              ( (Lir.Irmod.instr_by_iid m (Report.failing_anchor_iid r))
                  .Lir.Instr.pc,
                r.Report.failure_time_ns )
            in
            List.iter
              (fun (tid, ring) ->
                let steps =
                  (Pt.Decoder.decode m ~config ~tail_stop ring).Pt.Decoder.steps
                in
                Alcotest.(check (list int))
                  (Printf.sprintf "%s tid %d tailed walk" bug_id tid)
                  (reference_block_stack m steps)
                  (Fleet.Signature.block_stack_of_steps m steps))
              r.Report.traces;
            List.iter
              (fun cls ->
                for seed = 1 to 3 do
                  let prng = Snorlax_util.Prng.create ~seed in
                  let faults = ref 0 in
                  let skew = Chaos.Inject.skew_offset prng ~faults cls in
                  let damage = Chaos.Inject.damage cls prng ~faults ~skew in
                  let k =
                    check_signature_matches_reference
                      (Printf.sprintf "%s %s seed %d" bug_id
                         (Chaos.Fault.name cls) seed)
                      m ~config ~bug_id
                      (damage.Fleet.Endpoint.on_failing r)
                  in
                  if k <> intact then incr moved
                done)
              damaging)
          c.Corpus.Runner.failing)
    Corpus.Registry.all;
  (* The damage reaches the signature, so the damaged cases test
     something the intact ones do not. *)
  Alcotest.(check bool)
    (Printf.sprintf "damage moved signatures (%d)" !moved)
    true (!moved > 0)

let tests =
  [
    ( "fleet.wire",
      [
        Alcotest.test_case "crash round-trip" `Quick test_wire_roundtrip_crash;
        Alcotest.test_case "deadlock round-trip" `Quick
          test_wire_roundtrip_deadlock;
        Alcotest.test_case "success round-trip" `Quick
          test_wire_roundtrip_success;
        Alcotest.test_case "timing modes round-trip" `Quick
          test_wire_roundtrip_timing_modes;
        Alcotest.test_case "provenance round-trip" `Quick
          test_wire_roundtrip_provenance;
        Alcotest.test_case "v1 header rejected and counted" `Quick
          test_wire_v1_rejected;
        Alcotest.test_case "every truncation is Error" `Quick
          test_wire_truncations;
        Alcotest.test_case "bad version" `Quick test_wire_bad_version;
        Alcotest.test_case "trailing garbage" `Quick test_wire_trailing_garbage;
        Alcotest.test_case "empty input" `Quick test_wire_empty;
        qtest prop_wire_roundtrip;
        qtest prop_wire_corrupt_never_raises;
        qtest prop_wire_flip_never_raises;
      ] );
    ( "fleet.collector",
      [
        Alcotest.test_case "signature dedup across endpoints" `Quick
          test_collector_dedup;
        Alcotest.test_case "sampling keeps first K" `Quick
          test_collector_sampling;
        Alcotest.test_case "early success held then routed" `Quick
          test_collector_routes_early_success;
        Alcotest.test_case "unknown bug id rejected" `Quick
          test_collector_rejects_unknown_bug;
        Alcotest.test_case "garbage packet rejected" `Quick
          test_collector_rejects_garbage;
        Alcotest.test_case "pending pool bounded" `Quick
          test_collector_pending_pool_bounded;
        Alcotest.test_case "kept reports preserve arrival order" `Quick
          test_collector_arrival_order;
        Alcotest.test_case "out-of-order and duplicate delivery" `Quick
          test_collector_out_of_order_duplicates;
        Alcotest.test_case "qualifier mined from a provenance split" `Quick
          test_collector_qualifiers;
        Alcotest.test_case "no qualifiers below 2 samples a side" `Quick
          test_collector_qualifiers_need_both_sides;
        Alcotest.test_case "prov=None routes, no qualifiers" `Quick
          test_collector_routes_without_provenance;
        Alcotest.test_case "re-diagnosis reuses decodes" `Quick
          test_rediagnosis_reuses_decodes;
        Alcotest.test_case "counters reconcile on a mixed stream" `Quick
          test_collector_counters_reconcile;
      ] );
    ( "fleet.routes",
      [
        Alcotest.test_case "oldest route wins a shared pc" `Quick
          test_routes_oldest_wins;
        Alcotest.test_case "release is oldest first, rest stay" `Quick
          test_routes_release_order;
        Alcotest.test_case "evictions counted" `Quick
          test_routes_evictions_counted;
        Alcotest.test_case "a cap of 0 holds nothing" `Quick
          test_routes_cap_zero;
      ] );
    ( "fleet.deploy",
      [
        Alcotest.test_case "end-to-end cross-endpoint diagnosis" `Quick
          test_fleet_end_to_end;
        Alcotest.test_case "zero endpoints rejected" `Quick
          test_deploy_rejects_zero_endpoints;
        Alcotest.test_case "zero buckets: averages guarded, no NaN" `Quick
          test_deploy_zero_buckets;
        Alcotest.test_case "?tick hook: once per endpoint, monotone" `Quick
          test_deploy_tick_hook;
        Alcotest.test_case "once == one collector over the eval set" `Quick
          test_once_matches_one_collector;
        qtest prop_wire_stream_preserves_provenance;
      ] );
    ( "fleet.signature",
      [
        Alcotest.test_case "bounded walk equals reference filter" `Quick
          test_signature_walk_matches_reference;
      ] );
  ]
