module Hb = Analysis.Hb

let feed engine (e : Sim.Hooks.obs_event) =
  match e with
  | Sim.Hooks.Obs_lock_attempt { tid; iid; addr; _ } ->
    Hb.feed engine (Hb.Lock_attempt { tid; iid; lock = addr })
  | Obs_lock_acquired { tid; iid; addr; _ } ->
    Hb.feed engine (Hb.Acquire { tid; iid; lock = addr })
  | Obs_lock_released { tid; iid; addr; _ } ->
    Hb.feed engine (Hb.Release { tid; iid; lock = addr })
  | Obs_cond_park _ ->
    (* The mutex handoff around a wait is already visible as its own
       release/acquire events; parking itself orders nothing. *)
    ()
  | Obs_cond_wake { waker_tid; woken_tid; cond; _ } ->
    Hb.feed engine
      (Hb.Cond_wake { waker = waker_tid; woken = woken_tid; cond })
  | Obs_spawn { parent_tid; child_tid; iid; _ } ->
    Hb.feed engine (Hb.Fork { parent = parent_tid; child = child_tid; iid })
  | Obs_join { tid; target_tid; iid; _ } ->
    Hb.feed engine (Hb.Join { tid; target = target_tid; iid })

let hooks engine =
  {
    Sim.Hooks.none with
    Sim.Hooks.on_obs = Some (feed engine);
    on_access =
      Some
        (fun ~tid ~iid ~addr ~size ~kind ->
          match kind with
          | Sim.Hooks.Read -> Hb.access engine ~tid ~iid ~addr ~size ~kind:Hb.Read
          | Sim.Hooks.Write ->
            Hb.access engine ~tid ~iid ~addr ~size ~kind:Hb.Write
          | Sim.Hooks.Free -> Hb.free engine ~tid ~iid ~addr ~size);
  }
