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

(* --- golden decode digest ------------------------------------------------ *)

(* Every [Pt.Decoder.decode] result over every ring [Runner.collect]
   returns for the whole corpus: failing rings with and without their
   tail stop (the failing or blocked pc at the failure time), success
   rings with and without the trigger tail, and each ring under the
   [Test_pt.corrupt_ring] generator at seeds 1-20.  Decoder changes must
   leave every result bit-identical unless they fix a decode that the
   execution oracle ([Oracle.Executed]) rejects; the digest after the
   "/" covers the damaged rings, whose decodes may then move only by
   what the fix changes. *)
let golden_decode_digest =
  "3b8213522e0353f9b5327db37d0652e4/061ae3c8e2ee70ffe9fbb640cac96af1"

let step_text buf (d : Pt.Decoder.result) =
  Printf.bprintf buf "n=%d lost=%d desync=%b ended=%b\n"
    (Array.length d.Pt.Decoder.steps) d.Pt.Decoder.lost_bytes
    d.Pt.Decoder.desynced d.Pt.Decoder.thread_ended;
  Array.iter
    (fun (s : Pt.Decoder.step) ->
      Printf.bprintf buf "%d %d %d %s\n" s.Pt.Decoder.pc s.Pt.Decoder.iid
        s.Pt.Decoder.t_lo
        (match s.Pt.Decoder.t_hi with Some h -> string_of_int h | None -> "-"))
    d.Pt.Decoder.steps

(* One default [Runner.collect] of every corpus bug, shared by the golden
   decode and diagnosis digests and the streaming equivalence sweep. *)
let collected =
  lazy (List.map (fun (bug : Corpus.Bug.t) -> (bug, Corpus.Runner.collect bug ())) all)

let decode_digests () =
  let module R = Snorlax_core.Report in
  let config = Pt.Config.default in
  let clean = Buffer.create (1 lsl 16) in
  let corrupt = Buffer.create (1 lsl 16) in
  let rings = ref [] in
  let one m ?tail_stop ring =
    let buf = Buffer.create 4096 in
    step_text buf (Pt.Decoder.decode m ~config ?tail_stop ring);
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  List.iter
    (fun ((bug : Corpus.Bug.t), collected) ->
      match collected with
      | Error e -> Printf.bprintf clean "%s error %s\n" bug.Corpus.Bug.id e
      | Ok c ->
        let m = c.Corpus.Runner.built.Corpus.Bug.m in
        let pc_of iid = (Lir.Irmod.instr_by_iid m iid).Lir.Instr.pc in
        let decode_all ~tails traces =
          List.iter
            (fun (tid, ring) ->
              rings := (m, ring) :: !rings;
              Printf.bprintf clean "%s %d %s" bug.Corpus.Bug.id tid (one m ring);
              (match List.assoc_opt tid tails with
              | Some tail_stop ->
                Printf.bprintf clean " tail %s" (one m ~tail_stop ring)
              | None -> ());
              Buffer.add_char clean '\n')
            traces
        in
        List.iter
          (fun (r : R.failing_report) ->
            let tails =
              match r.R.info with
              | R.Crash_info { failing_iid; _ } ->
                [ (r.R.failing_tid, (pc_of failing_iid, r.R.failure_time_ns)) ]
              | R.Deadlock_info { blocked } ->
                List.map
                  (fun (tid, iid) -> (tid, (pc_of iid, r.R.failure_time_ns)))
                  blocked
            in
            decode_all ~tails r.R.traces)
          c.Corpus.Runner.failing;
        List.iter
          (fun (s : R.success_report) ->
            decode_all
              ~tails:
                [ (s.R.trigger_tid, (s.R.trigger_pc, s.R.trigger_time_ns)) ]
              s.R.s_traces)
          c.Corpus.Runner.successful)
    (Lazy.force collected);
  let rings = List.rev !rings in
  for seed = 1 to 20 do
    let prng = Snorlax_util.Prng.create ~seed in
    List.iter
      (fun (m, ring) ->
        Buffer.add_string corrupt (one m (Test_pt.corrupt_ring prng ring));
        Buffer.add_char corrupt '\n')
      rings
  done;
  ( List.length rings,
    Digest.to_hex (Digest.string (Buffer.contents clean)),
    Digest.to_hex (Digest.string (Buffer.contents corrupt)) )

let test_golden_decode_digest () =
  let n, clean, corrupt = decode_digests () in
  Alcotest.(check int) "corpus rings" 1760 n;
  Alcotest.(check string) "decode digest" golden_decode_digest
    (clean ^ "/" ^ corrupt)

(* --- golden diagnosis digest --------------------------------------------- *)

(* Everything [Diagnosis.diagnose] answers for every corpus bug's default
   collection: the full scored list (pattern id, F1/precision/recall as
   IEEE bits, presence counts), the resolved anchor, the stage funnel and
   each span's name with its [candidates] arg; plus the type-ranked
   candidates (iid, rank, access) [Diagnosis.derive] returns, which the
   scored list cannot show (patterns are generated in canonical order, so
   candidate ranks never reach it).  Refactors of stages 3-7 (points-to,
   anchor, type ranking, patterns, statistics) must leave it
   bit-identical. *)
let golden_diagnosis_digest = "a3ac738e77d1d723031f00e8fd67fea0"

let diagnosis_text () =
  let module D = Snorlax_core.Diagnosis in
  let module S = Snorlax_core.Statistics in
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  let bits f = Int64.bits_of_float f in
  List.iter
    (fun ((bug : Corpus.Bug.t), collected) ->
      add "%s\n" bug.Corpus.Bug.id;
      match collected with
      | Error e -> add "error %s\n" e
      | Ok c ->
        let m = c.Corpus.Runner.built.Corpus.Bug.m in
        let r =
          D.diagnose m ~config:Pt.Config.default ~failing:c.Corpus.Runner.failing
            ~successful:c.Corpus.Runner.successful
        in
        List.iter
          (fun (s : S.scored) ->
            add "%s %Ld %Ld %Ld %d %d\n"
              (Snorlax_core.Patterns.id s.S.pattern)
              (bits s.S.f1) (bits s.S.precision) (bits s.S.recall)
              s.S.present_in_failing s.S.present_in_successful)
          r.D.scored;
        let k = r.D.stage_counts in
        add "anchor %d stages %d %d %d %d %d %d\n" r.D.anchor_iid
          k.D.total_instrs k.D.after_trace_processing k.D.after_points_to
          k.D.after_type_ranking k.D.after_patterns k.D.after_statistics;
        List.iter
          (fun (sp : Obs.Span.span) ->
            add "span %s %s\n" sp.Obs.Span.name
              (match Obs.Span.find_arg sp "candidates" with
              | Some (Obs.Span.Int n) -> string_of_int n
              | Some _ | None -> "-"))
          r.D.spans;
        let config = Pt.Config.default in
        let tps =
          List.map (D.process_failing m ~config) c.Corpus.Runner.failing
          @ List.map (D.process_successful m ~config) c.Corpus.Runner.successful
        in
        let executed =
          List.fold_left
            (fun acc (tp : Snorlax_core.Trace_processing.t) ->
              Snorlax_core.Trace_processing.(Iset.union acc tp.executed))
            Snorlax_core.Trace_processing.Iset.empty tps
        in
        let d =
          D.derive m ~executed ~first:(List.hd c.Corpus.Runner.failing)
            ~first_tp:(List.hd tps)
        in
        List.iter
          (fun (k : Snorlax_core.Type_ranking.candidate) ->
            add "cand %d %d %s\n" k.iid k.rank
              (match k.access with
              | `Read -> "r"
              | `Write -> "w"
              | `Lock -> "l"))
          d.D.candidates)
    (Lazy.force collected);
  Buffer.contents buf

let test_golden_diagnosis_digest () =
  Alcotest.(check string) "diagnosis digest" golden_diagnosis_digest
    (Digest.to_hex (Digest.string (diagnosis_text ())))

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
        Alcotest.test_case "golden decode digest" `Quick test_golden_decode_digest;
        Alcotest.test_case "golden diagnosis digest" `Quick
          test_golden_diagnosis_digest;
      ] );
  ]
