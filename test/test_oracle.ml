(* End-to-end differential checks: the happens-before oracle must agree
   with the diagnosis pipeline on every corpus bug, every decode must
   follow the path its replayed thread executed, and the diagnosis must
   be bit-identical across decode parallelism levels. *)

module Core = Snorlax_core

let test_full_registry_agreement () =
  let wrapped = ref 0 in
  List.iter
    (fun (bug : Corpus.Bug.t) ->
      match Oracle.Diffcheck.check_bug bug with
      | Error e ->
        Alcotest.failf "%s failed to reproduce: %s" bug.Corpus.Bug.id e
      | Ok r ->
        wrapped := !wrapped + r.Oracle.Diffcheck.wrapped_rings;
        Alcotest.(check string)
          (bug.Corpus.Bug.id ^ " classification")
          "agree"
          (Oracle.Diffcheck.classification_name
             r.Oracle.Diffcheck.classification);
        Alcotest.(check bool)
          (bug.Corpus.Bug.id ^ " spurious pairs")
          true
          (r.Oracle.Diffcheck.spurious = []);
        Alcotest.(check (list string))
          (bug.Corpus.Bug.id ^ " decoded path matches execution")
          []
          (List.filter
             (fun n -> String.starts_with ~prefix:"decode mismatch" n)
             r.Oracle.Diffcheck.notes);
        Alcotest.(check int)
          (bug.Corpus.Bug.id ^ " decoder mismatches")
          0 r.Oracle.Diffcheck.decoder_mismatches)
    Corpus.Registry.all;
  (* The small-ring pass is only a check of mid-stream sync if some
     ring actually wrapped. *)
  Alcotest.(check bool) "small-ring pass wrapped a ring" true (!wrapped > 0)

(* Regression: a wrapped ring syncs at a mid-stream PSB, which the
   tracer emits at a conditional branch's control event, after the
   branch ran.  The decoder used to stamp that branch's step with the
   PSB's tsc, 1-2 ns after it executed (pbzip2-1's failing seed at 512 B
   rings read one such step). *)
let test_wrapped_sync_stamp () =
  let bug = Corpus.Registry.find_exn "pbzip2-1" in
  match Corpus.Runner.collect bug () with
  | Error e -> Alcotest.failf "pbzip2-1 failed to reproduce: %s" e
  | Ok c ->
    let built = c.Corpus.Runner.built in
    let m = built.Corpus.Bug.m in
    let config =
      { Pt.Config.default with Pt.Config.buffer_size = 512; psb_period_bytes = 128 }
    in
    let executed = Oracle.Executed.create () in
    let r =
      Corpus.Runner.run_traced ~built ~entry:bug.Corpus.Bug.entry
        ~seed:(List.hd c.Corpus.Runner.failing_seeds) ~pt_config:config
        ~extra_hooks:(Oracle.Executed.hooks executed) ()
    in
    let traces =
      (Pt.Driver.snapshot_now r.Corpus.Runner.driver
         ~at_time_ns:r.Corpus.Runner.result.Sim.Interp.final_time_ns)
        .Pt.Driver.traces
    in
    Alcotest.(check bool) "a ring wrapped" true
      (List.exists (fun (_, ring) -> Bytes.length ring >= 512) traces);
    List.iter
      (fun (tid, ring) ->
        let d = Pt.Decoder.decode m ~config ring in
        Alcotest.(check (result unit string))
          (Printf.sprintf "tid %d matches execution" tid)
          (Ok ())
          (Oracle.Executed.check executed ~tid d))
      traces

(* The scored pattern list — order included, since statistics tie-breaks
   depend on it — must not vary with how many domains decoded the
   traces. *)
let test_decode_jobs_determinism () =
  List.iter
    (fun id ->
      let bug = Corpus.Registry.find_exn id in
      match Corpus.Runner.collect bug () with
      | Error e -> Alcotest.failf "%s failed to reproduce: %s" id e
      | Ok c ->
        let ids jobs =
          let res =
            Core.Diagnosis.diagnose ~jobs c.Corpus.Runner.built.Corpus.Bug.m
              ~config:Pt.Config.default ~failing:c.Corpus.Runner.failing
              ~successful:c.Corpus.Runner.successful
          in
          List.map
            (fun (s : Core.Statistics.scored) ->
              Core.Patterns.id s.Core.Statistics.pattern)
            res.Core.Diagnosis.scored
        in
        let sequential = ids 1 in
        Alcotest.(check (list string)) (id ^ " jobs=2") sequential (ids 2);
        Alcotest.(check (list string)) (id ^ " jobs=4") sequential (ids 4))
    [ "mysql-5"; "mysql-7"; "httpd-1" ]

(* The corpus sweep itself parallelizes (one lane per bug): the result
   list must come back in input order with results identical to the
   sequential sweep, and a reproduction failure must surface as the same
   Error in the same slot. *)
let test_sweep_jobs_determinism () =
  let bugs =
    List.map Corpus.Registry.find_exn [ "pbzip2-1"; "mysql-5"; "httpd-1" ]
  in
  let strip r =
    List.map
      (fun (id, res) ->
        ( id,
          match res with
          | Error e -> Error e
          | Ok (r : Oracle.Diffcheck.bug_result) ->
            Ok
              ( Oracle.Diffcheck.classification_name
                  r.Oracle.Diffcheck.classification,
                r.Oracle.Diffcheck.spurious,
                r.Oracle.Diffcheck.decoder_mismatches ) ))
      r
  in
  let seq = strip (Oracle.Diffcheck.check_all bugs) in
  let par = strip (Oracle.Diffcheck.check_all ~sweep_jobs:4 bugs) in
  Alcotest.(check int) "same result count" (List.length seq) (List.length par);
  List.iter2
    (fun (id_s, r_s) (id_p, r_p) ->
      Alcotest.(check string) "input order preserved" id_s id_p;
      Alcotest.(check bool) (id_s ^ ": parallel sweep equals sequential") true
        (r_s = r_p))
    seq par

let tests =
  [
    ( "oracle.diffcheck",
      [
        Alcotest.test_case "all 54 corpus bugs agree" `Quick
          test_full_registry_agreement;
        Alcotest.test_case "wrapped ring sync stamp" `Quick
          test_wrapped_sync_stamp;
        Alcotest.test_case "decode-jobs 1/2/4 determinism" `Quick
          test_decode_jobs_determinism;
        Alcotest.test_case "sweep-jobs 1/4 determinism" `Quick
          test_sweep_jobs_determinism;
      ] );
  ]
