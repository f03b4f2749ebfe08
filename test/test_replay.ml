(* Tests for the coarse record/replay extension and the gate hook it is
   built on. *)

module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty

(* The knife-edge race from examples/record_replay.ml. *)
let build_race () =
  let m = Lir.Irmod.create "rr" in
  ignore (Lir.Irmod.declare_struct m "Msg" [ T.I64 ]);
  Lir.Irmod.declare_global m "mailbox" (T.Ptr (T.Struct "Msg"));
  B.define m "logger" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      B.io_delay b ~ns:380_000;
      let msg = B.load b ~name:"msg" (V.Global "mailbox") in
      let v = B.load b (B.gep b msg 0) in
      B.call_void b Lir.Intrinsics.print_i64 [ v ];
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      let msg = B.malloc b ~name:"msg" (T.Struct "Msg") in
      B.store b ~value:(V.i64 42) ~ptr:(B.gep b msg 0);
      B.store b ~value:msg ~ptr:(V.Global "mailbox");
      let t = B.spawn b "logger" (V.i64 0) in
      B.work b ~ns:380_000;
      B.store b ~value:(V.Null (T.Ptr (T.Struct "Msg"))) ~ptr:(V.Global "mailbox");
      B.call_void b Lir.Intrinsics.print_i64 [ V.i64 0 ];
      B.join b t;
      B.ret_void b);
  Lir.Verify.check_exn m;
  Lir.Irmod.layout m;
  m

let racy_iids m =
  let found = ref [] in
  Lir.Irmod.iter_instrs m (fun _ _ i ->
      match i.Lir.Instr.kind with
      | Lir.Instr.Store { ptr = Lir.Value.Global "mailbox"; _ }
      | Lir.Instr.Load { ptr = Lir.Value.Global "mailbox"; _ } ->
        found := i.Lir.Instr.iid :: !found
      | _ -> ());
  !found

let failed r =
  match r.Sim.Interp.outcome with Sim.Interp.Failed _ -> true | _ -> false

let run ~seed m =
  Sim.Interp.run ~config:{ Sim.Interp.default_config with seed } m ~entry:"main"

let rec find_seed p m seed = if p (run ~seed m) then seed else find_seed p m (seed + 1)

(* --- the gate primitive -------------------------------------------------- *)

let test_gate_delays_execution () =
  (* Gate every instruction of thread 0 once: the run still completes but
     takes longer. *)
  let build () = build_race () in
  let base = (run ~seed:2 (build ())).Sim.Interp.final_time_ns in
  let gated_once = Hashtbl.create 64 in
  let hooks =
    {
      Sim.Hooks.none with
      gate =
        Some
          (fun ~tid ~time:_ (i : Lir.Instr.t) ->
            if tid = 0 && not (Hashtbl.mem gated_once i.Lir.Instr.iid) then begin
              Hashtbl.add gated_once i.Lir.Instr.iid ();
              500.0
            end
            else 0.0);
    }
  in
  let r =
    Sim.Interp.run
      ~config:{ Sim.Interp.default_config with seed = 2; hooks }
      (build ()) ~entry:"main"
  in
  Alcotest.(check bool) "still finishes" true
    (match r.Sim.Interp.outcome with
    | Sim.Interp.Completed | Sim.Interp.Failed _ -> true
    | _ -> false);
  Alcotest.(check bool) "visibly slower" true
    (r.Sim.Interp.final_time_ns > base +. 2000.0)

let test_gate_zero_is_noop () =
  let build () = build_race () in
  let plain = run ~seed:3 (build ()) in
  let hooks =
    { Sim.Hooks.none with gate = Some (fun ~tid:_ ~time:_ _ -> 0.0) }
  in
  let gated =
    Sim.Interp.run
      ~config:{ Sim.Interp.default_config with seed = 3; hooks }
      (build ()) ~entry:"main"
  in
  Alcotest.(check (list int)) "same output" plain.Sim.Interp.output
    gated.Sim.Interp.output;
  Alcotest.(check (float 1.0)) "same time" plain.Sim.Interp.final_time_ns
    gated.Sim.Interp.final_time_ns

(* --- record -------------------------------------------------------------- *)

let test_record_captures_order () =
  let m = build_race () in
  let racy = racy_iids m in
  let failing_seed = find_seed failed m 1 in
  let r, schedule = Replay.record ~seed:failing_seed m ~entry:"main" ~racy_iids:racy in
  Alcotest.(check bool) "recorded run failed" true (failed r);
  (* init store, null store, logger load = 3 racing accesses. *)
  Alcotest.(check int) "three events" 3 (Replay.schedule_length schedule)

let test_record_deterministic () =
  let m = build_race () in
  let racy = racy_iids m in
  let _, s1 = Replay.record ~seed:7 m ~entry:"main" ~racy_iids:racy in
  let _, s2 = Replay.record ~seed:7 m ~entry:"main" ~racy_iids:racy in
  Alcotest.(check bool) "same schedule" true (s1.Replay.order = s2.Replay.order)

(* --- replay -------------------------------------------------------------- *)

let test_replay_same_seed_is_faithful () =
  let m = build_race () in
  let racy = racy_iids m in
  let failing_seed = find_seed failed m 1 in
  let r0, schedule = Replay.record ~seed:failing_seed m ~entry:"main" ~racy_iids:racy in
  let r1, fidelity =
    Replay.replay ~seed:failing_seed m ~entry:"main" ~racy_iids:racy schedule
  in
  Alcotest.(check bool) "same outcome kind" (failed r0) (failed r1);
  Alcotest.(check int) "no divergence" 0 fidelity.Replay.diverged;
  Alcotest.(check bool) "no give-up" false fidelity.Replay.gave_up

let test_replay_forces_failure_on_passing_seed () =
  let m = build_race () in
  let racy = racy_iids m in
  let failing_seed = find_seed failed m 1 in
  let passing_seed = find_seed (fun r -> not (failed r)) m (failing_seed + 1) in
  let _, schedule = Replay.record ~seed:failing_seed m ~entry:"main" ~racy_iids:racy in
  let free = run ~seed:passing_seed m in
  Alcotest.(check bool) "free run passes" false (failed free);
  let replayed, fidelity =
    Replay.replay ~seed:passing_seed m ~entry:"main" ~racy_iids:racy schedule
  in
  Alcotest.(check bool) "replay reproduces the failure" true (failed replayed);
  Alcotest.(check int) "fully enforced" 3 fidelity.Replay.enforced

let test_replay_empty_schedule_noop () =
  let m = build_race () in
  let racy = racy_iids m in
  let passing_seed = find_seed (fun r -> not (failed r)) m 1 in
  let free = run ~seed:passing_seed m in
  let replayed, fidelity =
    Replay.replay ~seed:passing_seed m ~entry:"main" ~racy_iids:racy
      { Replay.order = [||] }
  in
  Alcotest.(check bool) "outcome unchanged" (failed free) (failed replayed);
  Alcotest.(check int) "nothing enforced" 0 fidelity.Replay.enforced

let test_replay_gives_up_on_infeasible () =
  let m = build_race () in
  let racy = racy_iids m in
  (* A schedule demanding an event from a thread that never produces it. *)
  let bogus = { Replay.order = [| (99, List.hd racy) |] } in
  let r, fidelity =
    Replay.replay ~seed:1 ~max_stalls:20 m ~entry:"main" ~racy_iids:racy bogus
  in
  Alcotest.(check bool) "run still terminates" true
    (match r.Sim.Interp.outcome with
    | Sim.Interp.Completed | Sim.Interp.Failed _ -> true
    | _ -> false);
  Alcotest.(check bool) "enforcement gave up" true fidelity.Replay.gave_up

let test_racy_iids_of_pattern () =
  let p =
    Snorlax_core.Patterns.Order
      { remote_iid = 9; anchor_iid = 4; shape = Snorlax_core.Patterns.WR }
  in
  Alcotest.(check (list int)) "sorted unique" [ 4; 9 ]
    (Replay.racy_iids_of_pattern p)

let tests =
  [
    ( "replay",
      [
        Alcotest.test_case "gate delays execution" `Quick test_gate_delays_execution;
        Alcotest.test_case "zero gate is noop" `Quick test_gate_zero_is_noop;
        Alcotest.test_case "record captures order" `Quick test_record_captures_order;
        Alcotest.test_case "record deterministic" `Quick test_record_deterministic;
        Alcotest.test_case "same-seed replay faithful" `Quick
          test_replay_same_seed_is_faithful;
        Alcotest.test_case "replay forces failure" `Quick
          test_replay_forces_failure_on_passing_seed;
        Alcotest.test_case "empty schedule noop" `Quick test_replay_empty_schedule_noop;
        Alcotest.test_case "gives up on infeasible" `Quick
          test_replay_gives_up_on_infeasible;
        Alcotest.test_case "pattern to racy set" `Quick test_racy_iids_of_pattern;
      ] );
  ]
