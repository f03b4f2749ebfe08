module Pool = Snorlax_util.Pool

type ctx = {
  metrics : Metrics.t;
  trace : Span.t;
  mutable samples_rev : (float * (string * float) list) list;
  mutable n_samples : int;
  last_values : (string, float) Hashtbl.t;
}

(* Domain-local: each domain sees its own (usually absent) context, so a
   worker domain's recording calls are no-ops unless the worker installed
   a private context with [using].  This is what makes the ambient calls
   sprinkled through the decoder/collector safe to run on pool domains —
   they never touch another domain's registry. *)
let state : ctx option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let make () =
  {
    metrics = Metrics.create ();
    trace = Span.create ();
    samples_rev = [];
    n_samples = 0;
    last_values = Hashtbl.create 32;
  }

let enable () =
  let c = make () in
  (Domain.DLS.get state) := Some c;
  c

let disable () = (Domain.DLS.get state) := None

let current () = !(Domain.DLS.get state)

let enabled () = Option.is_some !(Domain.DLS.get state)

let using c f =
  let slot = Domain.DLS.get state in
  let prev = !slot in
  slot := Some c;
  Fun.protect ~finally:(fun () -> slot := prev) f

(* Counter/gauge time series for the Chrome exporter: at every span or
   timed-section boundary, record the scalars that changed since the last
   sample.  Capped so a hot timed section cannot grow the trace without
   bound — after the cap only the end-of-trace stamp remains. *)
let max_samples = 8192

let sample c =
  if c.n_samples < max_samples then begin
    let changed =
      List.filter_map
        (fun name ->
          let v =
            match Metrics.find_counter c.metrics name with
            | Some n -> Some (float_of_int n)
            | None -> Metrics.find_gauge c.metrics name
          in
          match v with
          | None -> None
          | Some v -> (
            match Hashtbl.find_opt c.last_values name with
            | Some prev when prev = v -> None
            | _ ->
              Hashtbl.replace c.last_values name v;
              Some (name, v)))
        (Metrics.names c.metrics)
    in
    if changed <> [] then begin
      c.samples_rev <- (Span.wall_clock_ns (), changed) :: c.samples_rev;
      c.n_samples <- c.n_samples + 1
    end
  end

let with_span ?args name f =
  match !(Domain.DLS.get state) with
  | None -> f ()
  | Some c ->
    Fun.protect
      ~finally:(fun () -> sample c)
      (fun () -> Span.with_span c.trace ?args name (fun _ -> f ()))

let count name n =
  match !(Domain.DLS.get state) with
  | None -> ()
  | Some c -> Metrics.add (Metrics.counter c.metrics name) n

let set_gauge name v =
  match !(Domain.DLS.get state) with
  | None -> ()
  | Some c -> Metrics.set (Metrics.gauge c.metrics name) v

let observe name v =
  match !(Domain.DLS.get state) with
  | None -> ()
  | Some c -> Metrics.observe (Metrics.histogram c.metrics name) v

let timed name f =
  match !(Domain.DLS.get state) with
  | None -> f ()
  | Some c ->
    let t0 = Span.wall_clock_ns () in
    Fun.protect
      ~finally:(fun () ->
        Metrics.observe
          (Metrics.histogram c.metrics name)
          (Span.wall_clock_ns () -. t0);
        sample c)
      f

(* Lanes pin nested decode sequential so no lane nests a pool inside a
   pool or reaches for the shared one from a worker domain; lane
   registries merge only after the barrier because the ambient context
   is not domain-safe. *)
let map_lanes pool f arr =
  if Pool.jobs pool <= 1 then Array.mapi f arr
  else begin
    let telemetry = enabled () in
    let regs = Array.make (Array.length arr) None in
    let out =
      Pool.map pool
        (fun i x ->
          Pool.with_default_jobs 1 @@ fun () ->
          if telemetry then begin
            let c = make () in
            regs.(i) <- Some c.metrics;
            using c (fun () -> f i x)
          end
          else f i x)
        arr
    in
    Option.iter
      (fun c -> Array.iter (Option.iter (Metrics.merge ~into:c.metrics)) regs)
      (current ());
    out
  end

let sweep ~jobs f items =
  let arr = Array.of_list items in
  Pool.with_pool ~jobs:(Pool.lanes ~jobs (Array.length arr)) (fun pool ->
      Array.to_list (map_lanes pool (fun _ x -> f x) arr))

let export_chrome () =
  match !(Domain.DLS.get state) with
  | None -> None
  | Some c ->
    Some
      (Chrome_trace.export ~metrics:c.metrics
         ~samples:(List.rev c.samples_rev) c.trace)

let export_metrics () =
  match !(Domain.DLS.get state) with None -> None | Some c -> Some (Metrics.to_json c.metrics)

let export_openmetrics () =
  match !(Domain.DLS.get state) with None -> None | Some c -> Some (Openmetrics.render c.metrics)

let summary () =
  match !(Domain.DLS.get state) with
  | None -> ""
  | Some c ->
    let buf = Buffer.create 512 in
    if Span.spans c.trace <> [] then begin
      Buffer.add_string buf "Spans:\n";
      Buffer.add_string buf (Span.render_tree c.trace)
    end;
    let m = Metrics.render c.metrics in
    if m <> "" then begin
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf "Metrics:\n";
      Buffer.add_string buf m
    end;
    Buffer.contents buf
