type snapshot = {
  traces : (int * bytes) list;
  at_time_ns : float;
  trigger_pc : int option;
  trigger_tid : int option;
}

type t = {
  tracer : Tracer.t;
  watch : Sim.Hooks.watch; (* pcs.(0) = primary (the failure pc) *)
  mutable watch_hit : snapshot option;
  mutable primary_hit : bool;
}

(* The head watchpoint (the failure pc itself) wins over the fallback
   (predecessor-block) pcs, and later hits replace earlier ones: the
   snapshot that survives is the one with the longest history, ending at
   the last time the successful execution passed the failure location.
   The interpreter calls back only on a watched pc, so a pc that is not
   the primary is a fallback. *)
let on_hit t ~tid ~time ~pc =
  let primary = pc = t.watch.Sim.Hooks.pcs.(0) in
  if primary || not t.primary_hit then begin
    t.watch_hit <-
      Some
        {
          traces = Tracer.snapshot t.tracer;
          at_time_ns = time;
          trigger_pc = Some pc;
          trigger_tid = Some tid;
        };
    if primary then t.primary_hit <- true
  end

let create ?(config = Config.default) () =
  let rec t =
    {
      tracer = Tracer.create ~config;
      watch =
        {
          Sim.Hooks.pcs = [||];
          on_hit = (fun ~tid ~time ~pc -> on_hit t ~tid ~time ~pc);
        };
      watch_hit = None;
      primary_hit = false;
    }
  in
  t

(* Each pc once, first occurrence first: a pc listed twice must still
   snapshot once per execution. *)
let set_watchpoints t ~pcs =
  t.watch.Sim.Hooks.pcs <-
    Array.of_list
      (List.rev
         (List.fold_left
            (fun acc pc -> if List.mem pc acc then acc else pc :: acc)
            [] pcs))

let snapshot_now t ~at_time_ns =
  {
    traces = Tracer.snapshot t.tracer;
    at_time_ns;
    trigger_pc = None;
    trigger_tid = None;
  }

let hooks t =
  {
    Sim.Hooks.none with
    on_control = Some (fun ~time e -> Tracer.on_control t.tracer ~time e);
    watch = [ t.watch ];
  }

let watch_snapshot t = t.watch_hit
let tracer t = t.tracer
