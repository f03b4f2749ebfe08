module Stats = Snorlax_util.Stats

type measurement = {
  bug : Corpus.Bug.t;
  deltas_us : float list list;
  runs_to_reproduce : int list;
}

type row = {
  r_bug : Corpus.Bug.t;
  avg_us : float list;
  std_us : float list;
  min_us : float;
}

(* Timestamp target instructions via the instruction hook — the stand-in
   for clock_gettime calls injected as immediate predecessors (§3.2).
   The last occurrence before the failure is the one in the bug. *)
let measure ?(samples = 10) ?(max_tries = 4000) bug =
  let built = bug.Corpus.Bug.build () in
  Lir.Irmod.layout built.Corpus.Bug.m;
  let pairs = built.Corpus.Bug.delta_pairs in
  let watched =
    List.sort_uniq compare
      (List.concat_map (fun (a, b) -> [ a; b ]) pairs)
  in
  let deltas = Array.make (List.length pairs) [] in
  let repro_runs = ref [] in
  let seed = ref 1 in
  let tries_since = ref 0 in
  let collected = ref 0 in
  while !collected < samples && !seed <= max_tries do
    incr tries_since;
    let last_time = Hashtbl.create 8 in
    let hooks =
      {
        Sim.Hooks.none with
        on_instr =
          Some
            (fun ~tid:_ ~time (i : Lir.Instr.t) ->
              if List.mem i.Lir.Instr.iid watched then
                Hashtbl.replace last_time i.Lir.Instr.iid time;
              0.0);
      }
    in
    let config = { Sim.Interp.default_config with seed = !seed; hooks } in
    let r = Sim.Interp.run ~config built.Corpus.Bug.m ~entry:bug.Corpus.Bug.entry in
    (match r.Sim.Interp.outcome with
    | Sim.Interp.Failed _ ->
      let ok =
        List.for_all
          (fun (a, b) -> Hashtbl.mem last_time a && Hashtbl.mem last_time b)
          pairs
      in
      if ok then begin
        List.iteri
          (fun k (a, b) ->
            let dt =
              Float.abs (Hashtbl.find last_time b -. Hashtbl.find last_time a)
              /. 1000.0
            in
            deltas.(k) <- dt :: deltas.(k))
          pairs;
        repro_runs := !tries_since :: !repro_runs;
        tries_since := 0;
        incr collected
      end
    | Sim.Interp.Completed | Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted -> ());
    incr seed
  done;
  if !collected < samples then
    failwith
      (Printf.sprintf "Hypothesis.measure: %s reproduced only %d/%d times"
         bug.Corpus.Bug.id !collected samples);
  {
    bug;
    deltas_us = Array.to_list (Array.map List.rev deltas);
    runs_to_reproduce = List.rev !repro_runs;
  }

let row_of_measurement m =
  let avg_us = List.map Stats.mean m.deltas_us in
  let std_us = List.map Stats.stddev m.deltas_us in
  let min_us =
    List.fold_left
      (fun acc ds -> List.fold_left Float.min acc ds)
      infinity m.deltas_us
  in
  { r_bug = m.bug; avg_us; std_us; min_us }

let run ?samples ~kind () =
  List.map
    (fun bug -> row_of_measurement (measure ?samples bug))
    (Corpus.Registry.by_kind kind)

let summary tables =
  let rows = List.concat tables in
  let all_avgs = List.concat_map (fun r -> r.avg_us) rows in
  let lo, hi = Stats.min_max all_avgs in
  let global_min =
    List.fold_left (fun acc r -> Float.min acc r.min_us) infinity rows
  in
  (lo, hi, global_min)
