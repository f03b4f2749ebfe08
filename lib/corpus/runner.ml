module Report = Snorlax_core.Report

type run = { result : Sim.Interp.run_result; driver : Pt.Driver.t }

let run_traced ~built ~entry ~seed ?(pt_config = Pt.Config.default)
    ?(watch_pcs = []) ?extra_hooks () =
  let m = built.Bug.m in
  Lir.Irmod.layout m;
  let driver = Pt.Driver.create ~config:pt_config () in
  if watch_pcs <> [] then Pt.Driver.set_watchpoints driver ~pcs:watch_pcs;
  let hooks =
    match extra_hooks with
    | None -> Pt.Driver.hooks driver
    | Some h -> Sim.Hooks.combine (Pt.Driver.hooks driver) h
  in
  let hooks =
    (* Scheduler telemetry rides along whenever a scope is live; its
       callbacks cost zero virtual time, so seeds reproduce identically. *)
    if Obs.Scope.enabled () then Sim.Hooks.combine hooks (Sim.Telemetry.hooks ())
    else hooks
  in
  let config = { Sim.Interp.default_config with seed; hooks } in
  let result = Sim.Interp.run ~config m ~entry in
  { result; driver }

let run_untraced ~built ~entry ~seed () =
  Lir.Irmod.layout built.Bug.m;
  let config = { Sim.Interp.default_config with seed } in
  Sim.Interp.run ~config built.Bug.m ~entry

type sync_profile = { sync_ops : int; sync_digest : int }

(* The provenance observer: an [on_obs] hook is pure observation with
   zero virtual-time cost, so attaching it cannot perturb the schedule
   being recorded (the happens-before oracle relies on the same
   property).  It keeps a count of synchronization operations and a ring
   of the last [sync_window] ops' static identities, digested FNV-1a
   style at report time.  Memory accesses are excluded — they would
   swamp the window and the interesting tail is the lock/condvar/thread
   traffic right before the failure — so it leaves [on_access] unset and
   the interpreter reports it none. *)
let sync_window = 16

let sync_observer () =
  let ops = ref 0 in
  let ring = Array.make sync_window 0 in
  let note tag tid iid =
    ring.(!ops mod sync_window) <- (tag * 0x1000003) lxor (tid * 8191) lxor iid;
    incr ops
  in
  let feed ev =
    match ev with
    | Sim.Hooks.Obs_lock_attempt { tid; iid; _ } -> note 1 tid iid
    | Sim.Hooks.Obs_lock_acquired { tid; iid; _ } -> note 2 tid iid
    | Sim.Hooks.Obs_lock_released { tid; iid; _ } -> note 3 tid iid
    | Sim.Hooks.Obs_cond_park { tid; iid; _ } -> note 4 tid iid
    | Sim.Hooks.Obs_cond_wake { waker_tid; woken_tid; _ } ->
      note 5 waker_tid woken_tid
    | Sim.Hooks.Obs_spawn { parent_tid; child_tid; iid; _ } ->
      note 6 parent_tid (iid lxor (child_tid * 31))
    | Sim.Hooks.Obs_join { tid; iid; _ } -> note 7 tid iid
  in
  let hooks = { Sim.Hooks.none with Sim.Hooks.on_obs = Some feed } in
  let profile () =
    let n = min !ops sync_window in
    let start = if !ops <= sync_window then 0 else !ops mod sync_window in
    let h = ref 0x5bd1e995 in
    for i = 0 to n - 1 do
      h := (!h lxor ring.((start + i) mod sync_window)) * 0x100000001b3
    done;
    { sync_ops = !ops; sync_digest = !h land max_int }
  in
  (hooks, profile)

type collected = {
  built : Bug.built;
  failing : Report.failing_report list;
  failing_seeds : int list;
  failing_sync : sync_profile list;
  successful : Report.success_report list;
  success_seeds : int list;
  success_sync : sync_profile list;
  runs_needed : int;
}

let watch_pcs_for m (r : Report.failing_report) =
  let iid = Report.failing_anchor_iid r in
  let i = Lir.Irmod.instr_by_iid m iid in
  let f, b = Lir.Irmod.location_of_iid m iid in
  let cfg = Lir.Cfg.of_func f in
  let pred_pcs =
    List.map
      (fun label ->
        Lir.Irmod.block_start_pc m ~fname:f.Lir.Func.fname ~label)
      (Lir.Cfg.predecessors cfg b.Lir.Block.label)
  in
  i.Lir.Instr.pc :: pred_pcs

let collect bug ?(pt_config = Pt.Config.default) ?(failing_count = 1)
    ?(success_per_failing = 10) ?(max_tries = 5000) ?(seed_base = 1) () =
  Obs.Scope.with_span ("corpus/" ^ bug.Bug.id)
    ~args:[ ("system", Obs.Span.Str bug.Bug.system) ]
  @@ fun () ->
  let built = bug.Bug.build () in
  let entry = bug.Bug.entry in
  let failing = ref [] in
  let failing_seeds = ref [] in
  let failing_sync = ref [] in
  let successful = ref [] in
  let success_seeds = ref [] in
  let success_sync = ref [] in
  let watch = ref [] in
  let runs_needed = ref 0 in
  let want_success () = success_per_failing * List.length !failing in
  let seed = ref seed_base in
  while
    (List.length !failing < failing_count
    || List.length !successful < want_success ())
    && !seed - seed_base < max_tries
  do
    if List.length !failing < failing_count then incr runs_needed;
    Obs.Scope.count "corpus/runs" 1;
    Obs.Log.debug "corpus/run"
      ~fields:[ ("bug", Obs.Log.Str bug.Bug.id); ("seed", Obs.Log.Int !seed) ];
    let obs_hooks, sync_profile = sync_observer () in
    let r =
      run_traced ~built ~entry ~seed:!seed ~pt_config ~watch_pcs:!watch
        ~extra_hooks:obs_hooks ()
    in
    (match r.result.Sim.Interp.outcome with
    | Sim.Interp.Failed { failure; time_ns } ->
      if List.length !failing < failing_count then begin
        let snap = Pt.Driver.snapshot_now r.driver ~at_time_ns:time_ns in
        let report =
          Report.of_sim_failure failure ~time_ns
            ~traces:snap.Pt.Driver.traces
        in
        Obs.Log.warn "corpus/sim_failure"
          ~fields:
            [
              ("bug", Obs.Log.Str bug.Bug.id);
              ("seed", Obs.Log.Int !seed);
              ("kind", Obs.Log.Str (Report.kind_label report));
              ("time_ns", Obs.Log.Int (int_of_float time_ns));
            ];
        failing := !failing @ [ report ];
        failing_seeds := !failing_seeds @ [ !seed ];
        failing_sync := !failing_sync @ [ sync_profile () ];
        Obs.Scope.count "corpus/failing_reports" 1;
        if !watch = [] then watch := watch_pcs_for built.Bug.m report
      end
    | Sim.Interp.Completed ->
      if
        !watch <> []
        && List.length !successful < want_success ()
      then (
        match Pt.Driver.watch_snapshot r.driver with
        | Some snap ->
          let trigger_pc = Option.value ~default:0 snap.Pt.Driver.trigger_pc in
          let trigger_tid =
            Option.value ~default:0 snap.Pt.Driver.trigger_tid
          in
          successful :=
            !successful
            @ [
                {
                  Report.s_traces = snap.Pt.Driver.traces;
                  trigger_time_ns = int_of_float snap.Pt.Driver.at_time_ns;
                  trigger_tid;
                  trigger_pc;
                };
              ];
          success_seeds := !success_seeds @ [ !seed ];
          success_sync := !success_sync @ [ sync_profile () ];
          Obs.Scope.count "corpus/successful_reports" 1
        | None -> ())
    | Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted -> ());
    incr seed
  done;
  if List.length !failing < failing_count then
    Error
      (Printf.sprintf "bug %s did not reproduce in %d runs" bug.Bug.id max_tries)
  else if List.length !successful < want_success () then
    Error
      (Printf.sprintf "bug %s: only %d successful traces in %d runs" bug.Bug.id
         (List.length !successful) max_tries)
  else
    Ok
      {
        built;
        failing = !failing;
        failing_seeds = !failing_seeds;
        failing_sync = !failing_sync;
        successful = !successful;
        success_seeds = !success_seeds;
        success_sync = !success_sync;
        runs_needed = !runs_needed;
      }
