(** Bridge from the simulator's observation hooks to the happens-before
    oracle: each {!Sim.Hooks.obs_event}, and each access the [on_access]
    callback reports, becomes one {!Analysis.Hb} event fed to an engine,
    in the order the interpreter fires them.

    Observation has zero virtual-time cost (the hook neither advances the
    clock nor consumes scheduler randomness), so re-running a recorded
    failing seed with these hooks attached reproduces the exact
    interleaving the failure originally took. *)

val feed : Analysis.Hb.t -> Sim.Hooks.obs_event -> unit
(** Translate one event.  [Obs_cond_park] is dropped: parking releases
    the mutex, which the interpreter already reports as a separate
    [Obs_lock_released], and the wake edge arrives with [Obs_cond_wake]. *)

val hooks : Analysis.Hb.t -> Sim.Hooks.t
(** A hook set whose only effect is feeding the engine, through both
    [on_obs] and [on_access] (accesses go straight to {!Analysis.Hb.access}
    and {!Analysis.Hb.free}, with no event built); pass it as
    [~extra_hooks] to {!Corpus.Runner.run_traced} or merge it with
    {!Sim.Hooks.combine}. *)
