(* Corpus-wide invariants: every bug builds a verifiable module with valid
   ground truth, the registry is consistent with the paper's study set,
   and every bug both reproduces and completes within a reasonable number
   of seeds. *)

let all = Corpus.Registry.all

let test_corpus_size () =
  Alcotest.(check int) "54 bugs as in the paper" 54 (List.length all);
  Alcotest.(check int) "13 systems" 13 (List.length Corpus.Registry.systems);
  Alcotest.(check int) "11-bug evaluation set" 11
    (List.length Corpus.Registry.eval_set)

let test_kind_mix () =
  let count kind = List.length (Corpus.Registry.by_kind kind) in
  Alcotest.(check int) "sums to 54" 54
    (count Corpus.Bug.Deadlock
    + count Corpus.Bug.Order_violation
    + count Corpus.Bug.Atomicity_violation);
  Alcotest.(check bool) "all three kinds present" true
    (count Corpus.Bug.Deadlock > 0
    && count Corpus.Bug.Order_violation > 0
    && count Corpus.Bug.Atomicity_violation > 0)

let test_ids_unique () =
  let ids = List.map (fun b -> b.Corpus.Bug.id) all in
  Alcotest.(check int) "no duplicate ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_eval_set_is_native () =
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Corpus.Bug.id ^ " is a C/C++ system")
        false b.Corpus.Bug.java)
    Corpus.Registry.eval_set

let test_find_and_by_system () =
  let b = Corpus.Registry.find_exn "mysql-7" in
  Alcotest.(check string) "found" "mysql-7" b.Corpus.Bug.id;
  Alcotest.(check int) "mysql has 9" 9
    (List.length (Corpus.Registry.by_system "mysql"));
  Alcotest.(check bool) "find returns Some" true
    (match Corpus.Registry.find "mysql-7" with
    | Some b -> String.equal b.Corpus.Bug.id "mysql-7"
    | None -> false);
  Alcotest.(check bool) "unknown is None" true
    (Corpus.Registry.find "nope-1" = None);
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Corpus.Registry.find_exn "nope-1");
       false
     with Not_found -> true)

let test_every_bug_builds_and_verifies () =
  List.iter
    (fun bug ->
      let built = bug.Corpus.Bug.build () in
      Alcotest.(check int)
        (bug.Corpus.Bug.id ^ " verifies")
        0
        (List.length (Lir.Verify.check built.Corpus.Bug.m));
      (* Ground truth references valid, distinct instructions. *)
      let gt = built.Corpus.Bug.ground_truth in
      Alcotest.(check bool) (bug.Corpus.Bug.id ^ " gt nonempty") true (gt <> []);
      Alcotest.(check int)
        (bug.Corpus.Bug.id ^ " gt distinct")
        (List.length gt)
        (List.length (List.sort_uniq compare gt));
      List.iter
        (fun iid ->
          Alcotest.(check bool)
            (Printf.sprintf "%s gt iid %d resolvable" bug.Corpus.Bug.id iid)
            true
            (match Lir.Irmod.instr_by_iid built.Corpus.Bug.m iid with
            | _ -> true
            | exception Not_found -> false))
        gt;
      (* Delta pairs reference ground-truth members. *)
      List.iter
        (fun (a, b) ->
          Alcotest.(check bool)
            (bug.Corpus.Bug.id ^ " delta pair in gt")
            true
            (List.mem a gt && List.mem b gt))
        built.Corpus.Bug.delta_pairs)
    all

let test_builds_are_deterministic () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  let b1 = bug.Corpus.Bug.build () in
  let b2 = bug.Corpus.Bug.build () in
  Alcotest.(check (list int)) "same ground truth iids"
    b1.Corpus.Bug.ground_truth b2.Corpus.Bug.ground_truth;
  Alcotest.(check int) "same instruction count"
    (Lir.Irmod.instr_count b1.Corpus.Bug.m)
    (Lir.Irmod.instr_count b2.Corpus.Bug.m)

let test_cold_code_present () =
  (* The whole-program analysis must have substantially more code than
     any execution touches (Table 4's raison d'etre). *)
  List.iter
    (fun bug ->
      let built = bug.Corpus.Bug.build () in
      Alcotest.(check bool)
        (bug.Corpus.Bug.id ^ " has cold code")
        true
        (Lir.Irmod.instr_count built.Corpus.Bug.m > 300))
    Corpus.Registry.eval_set

let reproduction_outcomes bug ~seeds =
  let built = bug.Corpus.Bug.build () in
  let fails = ref 0 and completes = ref 0 in
  for seed = 1 to seeds do
    match
      (Corpus.Runner.run_untraced ~built ~entry:bug.Corpus.Bug.entry ~seed ())
        .Sim.Interp.outcome
    with
    | Sim.Interp.Failed _ -> incr fails
    | Sim.Interp.Completed -> incr completes
    | Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted -> ()
  done;
  (!fails, !completes)

let test_every_bug_reproduces () =
  List.iter
    (fun bug ->
      let fails, completes = reproduction_outcomes bug ~seeds:60 in
      Alcotest.(check bool)
        (bug.Corpus.Bug.id ^ " manifests")
        true (fails > 0);
      Alcotest.(check bool)
        (bug.Corpus.Bug.id ^ " also completes")
        true (completes > 0))
    all

let test_failure_kind_matches_bug_kind () =
  List.iter
    (fun bug ->
      let built = bug.Corpus.Bug.build () in
      let rec first_failure seed =
        if seed > 200 then None
        else
          match
            (Corpus.Runner.run_untraced ~built ~entry:bug.Corpus.Bug.entry ~seed ())
              .Sim.Interp.outcome
          with
          | Sim.Interp.Failed { failure; _ } -> Some failure
          | _ -> first_failure (seed + 1)
      in
      match first_failure 1 with
      | None -> Alcotest.fail (bug.Corpus.Bug.id ^ " did not reproduce")
      | Some failure -> (
        match bug.Corpus.Bug.kind, failure with
        | Corpus.Bug.Deadlock, Sim.Failure.Deadlock _ -> ()
        | (Corpus.Bug.Order_violation | Corpus.Bug.Atomicity_violation),
          (Sim.Failure.Crash _ | Sim.Failure.Assert_fail _) ->
          ()
        | _ ->
          Alcotest.fail
            (Printf.sprintf "%s failed with unexpected kind: %s"
               bug.Corpus.Bug.id
               (Sim.Failure.to_string failure))))
    Corpus.Registry.eval_set

let test_runner_collect_shape () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  match Corpus.Runner.collect bug ~success_per_failing:4 () with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    Alcotest.(check int) "one failing" 1 (List.length c.Corpus.Runner.failing);
    Alcotest.(check int) "four successes" 4
      (List.length c.Corpus.Runner.successful);
    Alcotest.(check bool) "needed at least one run" true
      (c.Corpus.Runner.runs_needed >= 1);
    List.iter
      (fun (s : Snorlax_core.Report.success_report) ->
        Alcotest.(check bool) "success traces nonempty" true
          (s.Snorlax_core.Report.s_traces <> []))
      c.Corpus.Runner.successful

let test_watch_pcs_start_with_failure_pc () =
  let bug = Corpus.Registry.find_exn "sqlite-3" in
  match Corpus.Runner.collect bug ~success_per_failing:1 () with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
    let m = c.Corpus.Runner.built.Corpus.Bug.m in
    let failing = List.hd c.Corpus.Runner.failing in
    let pcs = Corpus.Runner.watch_pcs_for m failing in
    let anchor = Snorlax_core.Report.failing_anchor_iid failing in
    Alcotest.(check int) "head is failing pc"
      (Lir.Irmod.instr_by_iid m anchor).Lir.Instr.pc (List.hd pcs)

(* --- golden determinism --------------------------------------------------- *)

(* Everything observable about a traced run and an HB-observed run of every
   corpus bug on seeds 1-3, plus one full collection, folded into a single
   digest.  Performance work on the simulator, the tracer or the HB engine
   must leave each of these bit-identical: outcomes, step counts, virtual
   times (as IEEE bits), program output, every thread's ring bytes, racy
   pairs, lock-order facts and the happens-before explanation of every
   conflicting pair of accessed instructions.  The constant was computed
   with the tree-walking interpreter and full-size (64 KB) rings. *)
let golden_digest = "e408aa97b7dcd83f6f8afcec759f6491"

let golden_text () =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  let time f = Int64.bits_of_float f in
  let add_outcome (r : Sim.Interp.run_result) =
    (match r.Sim.Interp.outcome with
    | Sim.Interp.Completed -> add "completed"
    | Sim.Interp.Stuck -> add "stuck"
    | Sim.Interp.Fuel_exhausted -> add "fuel"
    | Sim.Interp.Failed { failure; time_ns } ->
      add "failed %s @%Ld" (Sim.Failure.to_string failure) (time time_ns));
    add " steps=%d threads=%d\n" r.Sim.Interp.steps r.Sim.Interp.threads_spawned
  in
  let add_traces traces =
    List.iter
      (fun (tid, bytes) ->
        add "ring %d %s\n" tid (Digest.to_hex (Digest.bytes bytes)))
      traces
  in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      let built = bug.Corpus.Bug.build () in
      let entry = bug.Corpus.Bug.entry in
      List.iter
        (fun seed ->
          add "%s seed %d\n" bug.Corpus.Bug.id seed;
          let tr = Corpus.Runner.run_traced ~built ~entry ~seed () in
          let r = tr.Corpus.Runner.result in
          add_outcome r;
          add "time=%Ld output=%s\n" (time r.Sim.Interp.final_time_ns)
            (String.concat "," (List.map string_of_int r.Sim.Interp.output));
          add_traces
            (Pt.Tracer.snapshot (Pt.Driver.tracer tr.Corpus.Runner.driver));
          let engine = Analysis.Hb.create () in
          let accessed = ref [] in
          let note =
            {
              Sim.Hooks.none with
              Sim.Hooks.on_obs =
                Some
                  (function
                  | Sim.Hooks.Obs_access { iid; _ } ->
                    accessed := iid :: !accessed
                  | _ -> ());
            }
          in
          let config =
            {
              Sim.Interp.default_config with
              seed;
              hooks = Sim.Hooks.combine (Oracle.Observe.hooks engine) note;
            }
          in
          let o = Sim.Interp.run ~config built.Corpus.Bug.m ~entry in
          let accessed = List.sort_uniq compare !accessed in
          add_outcome o;
          List.iter
            (fun (x : Analysis.Hb.race) ->
              add "race %d %d\n" x.Analysis.Hb.a_iid x.Analysis.Hb.b_iid)
            (Analysis.Hb.races engine);
          List.iter
            (fun (t, hl, hi, wl, wi) -> add "edge %d %d %d %d %d\n" t hl hi wl wi)
            (Analysis.Hb.lock_edges engine);
          (* Every conflicting pair of accessed instructions, with the
             happens-before chain that explains its ordering. *)
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  if a <= b then
                    match Analysis.Hb.pair_verdict engine a b with
                    | Analysis.Hb.No_conflict -> ()
                    | Analysis.Hb.Conflict { ordering; path } ->
                      add "pair %d %d %s [%s]\n" a b
                        (match ordering with
                        | Analysis.Hb.Racy -> "racy"
                        | Analysis.Hb.Lock_ordered -> "lock"
                        | Analysis.Hb.Enforced -> "enforced")
                        (String.concat "; " path))
                accessed)
            accessed)
        [ 1; 2; 3 ])
    all;
  (match
     Corpus.Runner.collect (Corpus.Registry.find_exn "pbzip2-1")
       ~success_per_failing:4 ()
   with
  | Error e -> add "collect error %s\n" e
  | Ok c ->
    add "collect failing=%s success=%s runs=%d\n"
      (String.concat "," (List.map string_of_int c.Corpus.Runner.failing_seeds))
      (String.concat "," (List.map string_of_int c.Corpus.Runner.success_seeds))
      c.Corpus.Runner.runs_needed;
    List.iter
      (fun (f : Snorlax_core.Report.failing_report) ->
        add "failing t=%d\n" f.Snorlax_core.Report.failure_time_ns;
        add_traces f.Snorlax_core.Report.traces)
      c.Corpus.Runner.failing;
    List.iter
      (fun (s : Snorlax_core.Report.success_report) ->
        add "success t=%d pc=%d tid=%d\n" s.Snorlax_core.Report.trigger_time_ns
          s.Snorlax_core.Report.trigger_pc s.Snorlax_core.Report.trigger_tid;
        add_traces s.Snorlax_core.Report.s_traces)
      c.Corpus.Runner.successful);
  Buffer.contents buf

let test_golden_determinism () =
  let text = golden_text () in
  Alcotest.(check string) "corpus run digest" golden_digest
    (Digest.to_hex (Digest.string text))

let tests =
  [
    ( "corpus.registry",
      [
        Alcotest.test_case "size" `Quick test_corpus_size;
        Alcotest.test_case "kind mix" `Quick test_kind_mix;
        Alcotest.test_case "ids unique" `Quick test_ids_unique;
        Alcotest.test_case "eval set native" `Quick test_eval_set_is_native;
        Alcotest.test_case "find/by_system" `Quick test_find_and_by_system;
      ] );
    ( "corpus.programs",
      [
        Alcotest.test_case "all build and verify" `Slow
          test_every_bug_builds_and_verifies;
        Alcotest.test_case "builds deterministic" `Quick test_builds_are_deterministic;
        Alcotest.test_case "cold code present" `Quick test_cold_code_present;
      ] );
    ( "corpus.reproduction",
      [
        Alcotest.test_case "every bug reproduces" `Slow test_every_bug_reproduces;
        Alcotest.test_case "failure kinds match" `Slow
          test_failure_kind_matches_bug_kind;
        Alcotest.test_case "collect shape" `Quick test_runner_collect_shape;
        Alcotest.test_case "watch pcs" `Quick test_watch_pcs_start_with_failure_pc;
        Alcotest.test_case "golden run digest" `Quick test_golden_determinism;
      ] );
  ]
