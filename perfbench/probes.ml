(* Layer probes for what no workload call exposes on its own: the same
   seeds run plain, under the PT tracer, and with the HB oracle's
   observation hooks, so each ratio compares exactly what its name says.
   Run after the traced window, with telemetry off. *)

let run (builds : (Corpus.Bug.t * Corpus.Bug.built) list) ~seeds =
  let plain = ref 0. and traced = ref 0. and hb = ref 0. in
  let steps = ref 0 and ring = ref 0 and runs = ref 0 in
  let time f =
    let t = Trace.now () in
    let r = f () in
    (Trace.now () -. t, r)
  in
  List.iter
    (fun ((bug : Corpus.Bug.t), (built : Corpus.Bug.built)) ->
      let entry = bug.Corpus.Bug.entry in
      List.iter
        (fun seed ->
          try
            let dp, r =
              time (fun () -> Corpus.Runner.run_untraced ~built ~entry ~seed ())
            in
            let dt, tr =
              time (fun () -> Corpus.Runner.run_traced ~built ~entry ~seed ())
            in
            let engine = Analysis.Hb.create () in
            let config =
              {
                Sim.Interp.default_config with
                seed;
                hooks = Oracle.Observe.hooks engine;
              }
            in
            let dh, _ =
              time (fun () -> Sim.Interp.run ~config built.Corpus.Bug.m ~entry)
            in
            plain := !plain +. dp;
            traced := !traced +. dt;
            hb := !hb +. dh;
            steps := !steps + r.Sim.Interp.steps;
            ring :=
              !ring
              + Pt.Tracer.bytes_written (Pt.Driver.tracer tr.Corpus.Runner.driver);
            incr runs
          with Failure _ -> ())
        seeds)
    builds;
  let ratio x = if !plain > 0. then x /. !plain else 0. in
  [
    ("sim.steps_per_s", (if !plain > 0. then float_of_int !steps /. (!plain /. 1e9) else 0.), "1/s");
    ("pt.tracer.overhead_ratio", ratio !traced, "ratio");
    ("pt.ring_bytes", float_of_int !ring /. float_of_int (max 1 !runs), "bytes");
    ("analysis.hb.overhead_ratio", ratio !hb, "ratio");
  ]
