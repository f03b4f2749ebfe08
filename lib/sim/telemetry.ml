let hooks () =
  match Obs.Scope.current () with
  | None -> Hooks.none
  | Some ctx ->
    let m = ctx.Obs.Scope.metrics in
    (* Handles resolved once here so the per-event path is a bare
       unsynchronized increment, never a name lookup. *)
    let instrs = Obs.Metrics.counter m "sim/instructions" in
    let control = Obs.Metrics.counter m "sim/control_events" in
    let switches = Obs.Metrics.counter m "sim/context_switches" in
    let contentions = Obs.Metrics.counter m "sim/lock_contention" in
    let parked = Obs.Metrics.histogram m "sim/parked_ns" in
    {
      Hooks.none with
      on_control =
        Some
          (fun ~time:_ _ ->
            Obs.Metrics.incr control;
            0.0);
      on_instr =
        Some
          (fun ~tid:_ ~time:_ _ ->
            Obs.Metrics.incr instrs;
            0.0);
      on_sched =
        Some
          (fun event ->
            match event with
            | Hooks.Switch _ -> Obs.Metrics.incr switches
            | Hooks.Contended _ -> Obs.Metrics.incr contentions
            | Hooks.Unblocked { parked_ns; _ } ->
              Obs.Metrics.observe parked parked_ns);
    }
