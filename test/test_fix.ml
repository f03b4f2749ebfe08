(* Tests for the fix subsystem: synthesis invariants over the whole
   corpus, the oracle's rejection of a deliberately wrong patch, and
   parallel/sequential sweep equivalence. *)

module Core = Snorlax_core

(* Every synthesizable candidate patch, across all corpus bugs, must (a)
   leave the module well-formed and (b) touch only the functions it
   declares: every other function prints identically to a fresh build.
   At least one template per diagnosed bug must synthesize, or the fix
   ladder would have nothing to validate. *)
let test_patches_verify_and_localize () =
  let patched_total = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Experiments.Eval_runs.get_result bug with
      | Error msg -> Alcotest.failf "%s did not reproduce: %s" bug.id msg
      | Ok entry -> (
        match entry.Experiments.Eval_runs.diagnosis.Core.Diagnosis.top with
        | None -> Alcotest.failf "%s diagnosed no pattern" bug.id
        | Some top ->
          let pattern = top.Core.Statistics.pattern in
          let reference = (bug.build ()).Corpus.Bug.m in
          let ok_templates = ref 0 in
          List.iter
            (fun template ->
              let m = (bug.build ()).Corpus.Bug.m in
              match Fix.Patch.synthesize ~m ~pattern template with
              | Error _ -> ()
              | Ok patch ->
                incr ok_templates;
                incr patched_total;
                let name = Fix.Patch.template_name template in
                (match Lir.Verify.check m with
                | [] -> ()
                | errs ->
                  Alcotest.failf "%s/%s: %d verifier errors" bug.id name
                    (List.length errs));
                List.iter
                  (fun (f : Lir.Func.t) ->
                    if not (List.mem f.fname patch.Fix.Patch.touched_funcs)
                    then
                      let orig = Lir.Irmod.find_func reference f.fname in
                      Alcotest.(check string)
                        (Printf.sprintf "%s/%s leaves %s untouched" bug.id
                           name f.fname)
                        (Lir.Printer.func_to_string orig)
                        (Lir.Printer.func_to_string f))
                  (Lir.Irmod.funcs m))
            (Fix.Patch.candidates pattern);
          Alcotest.(check bool)
            (bug.id ^ " has at least one applicable template")
            true (!ok_templates > 0)))
    Corpus.Registry.all;
  Alcotest.(check bool) "patched something" true (!patched_total > 0)

(* A deliberately wrong patch — the new mutex bracketing only the remote
   side of a diagnosed atomicity pair — must not earn [Fixed]: the
   HB-oracle sweep still sees the diagnosed pair racy (or the failure
   still reproduces). *)
let test_one_sided_patch_rejected () =
  let bug = Corpus.Registry.find_exn "mysql-7" in
  let entry =
    match Experiments.Eval_runs.get_result bug with
    | Ok e -> e
    | Error msg -> Alcotest.failf "mysql-7 did not reproduce: %s" msg
  in
  let pattern =
    match entry.Experiments.Eval_runs.diagnosis.Core.Diagnosis.top with
    | Some top -> top.Core.Statistics.pattern
    | None -> Alcotest.fail "mysql-7 diagnosed no pattern"
  in
  let remote_iid =
    match pattern with
    | Core.Patterns.Atomicity { remote_iid; _ } -> remote_iid
    | _ -> Alcotest.fail "mysql-7 should diagnose an atomicity pattern"
  in
  let m = (bug.build ()).Corpus.Bug.m in
  let g = Lir.Rewrite.fresh_global m ~base:"__wrong_mutex" Lir.Ty.I64 in
  let call callee =
    Lir.Instr.Call { dst = None; callee; args = [ Lir.Value.Global g ] }
  in
  ignore
    (Lir.Rewrite.insert_before m ~iid:remote_iid
       [ call Lir.Intrinsics.mutex_lock ]);
  ignore
    (Lir.Rewrite.insert_after m ~iid:remote_iid
       [ call Lir.Intrinsics.mutex_unlock ]);
  Lir.Verify.check_exn m;
  Lir.Irmod.layout m;
  let collected = entry.Experiments.Eval_runs.collected in
  let j =
    Fix.Validate.judge_patch ~bug ~collected ~pattern
      ~sweep_seeds:(Fix.Validate.sweep_seed_list ~collected ~seeds:5)
      m
  in
  match j.Fix.Validate.verdict with
  | Fix.Validate.Fixed ->
    Alcotest.fail "a one-sided lock must not pass validation"
  | Fix.Validate.Not_fixed _ | Fix.Validate.Regressed _ -> ()

(* The parallel fix sweep must return exactly the sequential sweep's
   verdict table: same order, same verdicts, same winning templates. *)
let test_parallel_matches_sequential () =
  let bugs =
    List.map Corpus.Registry.find_exn [ "mysql-7"; "pbzip2-1"; "derby-1" ]
  in
  let project results =
    List.map
      (fun (id, r) ->
        match r with
        | Error msg -> (id, "error", msg)
        | Ok (b : Fix.Validate.bug_report) ->
          ( id,
            Fix.Validate.verdict_name b.verdict,
            match b.template with
            | None -> "-"
            | Some t -> Fix.Patch.template_name t ))
      results
  in
  let seq = project (Fix.Validate.fix_all ~sweep_jobs:1 ~seeds:2 bugs) in
  let par = project (Fix.Validate.fix_all ~sweep_jobs:4 ~seeds:2 bugs) in
  Alcotest.(check (list (triple string string string)))
    "parallel == sequential" seq par;
  List.iter
    (fun (id, verdict, _) ->
      Alcotest.(check string) (id ^ " fixed") "fixed" verdict)
    seq

(* Seeds/sec divides by the sweep's wall-clock time, not by the summed
   per-bug times: two lanes that each spent 1 s on 10 and 20 runs
   finished 30 runs in 1 s of wall time. *)
let test_summarize_wall_clock () =
  let report id runs =
    ( id,
      Ok
        {
          Fix.Validate.bug_id = id;
          bug_kind = "order-violation";
          pattern = None;
          verdict = Fix.Validate.Fixed;
          template = None;
          patch = None;
          attempts = [];
          replay_ok = true;
          sweep_seeds = 2;
          runs;
          secs = 1.0;
          notes = [];
        } )
  in
  let results = [ report "a" 10; report "b" 20 ] in
  let par = Fix.Validate.summarize ~wall_secs:1.0 results in
  Alcotest.(check int) "runs" 30 par.Fix.Validate.total_runs;
  Alcotest.(check (float 1e-9)) "wall-clock rate" 30.
    par.Fix.Validate.seeds_per_sec;
  Alcotest.(check (float 1e-9)) "per-lane rate" 15.
    par.Fix.Validate.lane_seeds_per_sec;
  Alcotest.(check (float 1e-9)) "summed lane time" 2. par.Fix.Validate.total_secs

(* The decode cache keys a module by name and instruction count, and the
   count is memoized by layout.  Patching a fresh build must move both
   the count and every key of the bug's rings: a stale memo would let a
   patched module hit the pristine module's decodes.  Between an edit and
   the next layout the count folds, so it is never stale either. *)
let test_patch_invalidates_key () =
  let bug = Corpus.Registry.find_exn "mysql-7" in
  let entry =
    match Experiments.Eval_runs.get_result bug with
    | Ok e -> e
    | Error msg -> Alcotest.failf "mysql-7 did not reproduce: %s" msg
  in
  let pattern =
    match entry.Experiments.Eval_runs.diagnosis.Core.Diagnosis.top with
    | Some top -> top.Core.Statistics.pattern
    | None -> Alcotest.fail "mysql-7 diagnosed no pattern"
  in
  let failing =
    match entry.Experiments.Eval_runs.collected.Corpus.Runner.failing with
    | r :: _ -> r
    | [] -> Alcotest.fail "no failing report"
  in
  let ring = snd (List.hd failing.Core.Report.traces) in
  let folded m =
    let n = ref 0 in
    Lir.Irmod.iter_instrs m (fun _ _ _ -> incr n);
    !n
  in
  let config = Pt.Config.default in
  let m = (bug.build ()).Corpus.Bug.m in
  Lir.Irmod.layout m;
  let n0 = Lir.Irmod.instr_count m in
  Alcotest.(check int) "memo equals fold" (folded m) n0;
  let k0 = Pt.Decode_cache.key m ~config ring in
  let template =
    List.find
      (fun t ->
        let scratch = (bug.build ()).Corpus.Bug.m in
        Result.is_ok (Fix.Patch.synthesize ~m:scratch ~pattern t))
      (Fix.Patch.candidates pattern)
  in
  (match Fix.Patch.synthesize ~m ~pattern template with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "synthesis failed: %s" e);
  Alcotest.(check int) "patched memo equals fold" (folded m)
    (Lir.Irmod.instr_count m);
  Alcotest.(check bool) "patch adds instructions" true
    (Lir.Irmod.instr_count m > n0);
  Alcotest.(check bool) "patched module's key differs" false
    (String.equal k0 (Pt.Decode_cache.key m ~config ring));
  (* A raw edit before the next layout: the count folds, not memo. *)
  let before = Lir.Irmod.instr_count m in
  let g = Lir.Rewrite.fresh_global m ~base:"__probe_mutex" Lir.Ty.I64 in
  ignore
    (Lir.Rewrite.insert_before m
       ~iid:(Core.Report.failing_anchor_iid failing)
       [
         Lir.Instr.Call
           {
             dst = None;
             callee = Lir.Intrinsics.mutex_lock;
             args = [ Lir.Value.Global g ];
           };
       ]);
  Alcotest.(check int) "edited, not laid out: count follows the edit"
    (before + 1) (Lir.Irmod.instr_count m)

let tests =
  [
    ( "fix.synthesis",
      [
        Alcotest.test_case "patches verify and localize" `Slow
          test_patches_verify_and_localize;
        Alcotest.test_case "patch invalidates the decode key" `Quick
          test_patch_invalidates_key;
      ] );
    ( "fix.validation",
      [
        Alcotest.test_case "one-sided patch rejected" `Slow
          test_one_sided_patch_rejected;
        Alcotest.test_case "parallel == sequential" `Slow
          test_parallel_matches_sequential;
        Alcotest.test_case "seeds/sec over wall-clock time" `Quick
          test_summarize_wall_clock;
      ] );
  ]
