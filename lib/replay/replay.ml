type schedule = { order : (int * int) array }

let schedule_length s = Array.length s.order

type fidelity = { enforced : int; diverged : int; gave_up : bool }

let record ?(seed = 1) m ~entry ~racy_iids =
  Lir.Irmod.layout m;
  let log = ref [] in
  let hooks =
    {
      Sim.Hooks.none with
      on_instr =
        Some
          (fun ~tid ~time:_ (i : Lir.Instr.t) ->
            if List.mem i.Lir.Instr.iid racy_iids then
              log := (tid, i.Lir.Instr.iid) :: !log;
            0.0);
    }
  in
  let config = { Sim.Interp.default_config with seed; hooks } in
  let result = Sim.Interp.run ~config m ~entry in
  (result, { order = Array.of_list (List.rev !log) })

let replay ?(seed = 1) ?(max_stalls = 2000) m ~entry ~racy_iids schedule =
  Lir.Irmod.layout m;
  let cursor = ref 0 in
  let stalls = ref 0 in
  let enforced = ref 0 in
  let diverged = ref 0 in
  let gave_up = ref false in
  let n = Array.length schedule.order in
  (* Park a thread that reaches a racy access out of turn; the scheduler
     then runs whoever holds the next scheduled access.  A bounded stall
     count releases the enforcement when the execution's own control flow
     has diverged from the recording. *)
  let gate ~tid ~time:_ (i : Lir.Instr.t) =
    if (not (List.mem i.Lir.Instr.iid racy_iids)) || !cursor >= n then 0.0
    else
      let want_tid, want_iid = schedule.order.(!cursor) in
      if want_tid = tid && want_iid = i.Lir.Instr.iid then 0.0
      else if !stalls >= max_stalls then begin
        gave_up := true;
        0.0
      end
      else begin
        incr stalls;
        250.0
      end
  in
  let on_instr ~tid ~time:_ (i : Lir.Instr.t) =
    if List.mem i.Lir.Instr.iid racy_iids then begin
      (if !cursor < n then
         let want_tid, want_iid = schedule.order.(!cursor) in
         if want_tid = tid && want_iid = i.Lir.Instr.iid then begin
           incr cursor;
           stalls := 0;
           incr enforced
         end
         else incr diverged
       else incr diverged);
      ()
    end;
    0.0
  in
  let hooks =
    { Sim.Hooks.none with on_instr = Some on_instr; gate = Some gate }
  in
  let config = { Sim.Interp.default_config with seed; hooks } in
  let result = Sim.Interp.run ~config m ~entry in
  (result, { enforced = !enforced; diverged = !diverged; gave_up = !gave_up })

let racy_iids_of_pattern p =
  List.sort_uniq compare (Snorlax_core.Patterns.ordered_iids p)
