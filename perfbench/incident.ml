(* The incident path, run as a reference slice on every workload: a
   closed loop, one incident at a time, from an endpoint's traced
   reproduction to the server's ranked diagnosis.

   Each incident: [Corpus.Runner.collect] reproduces the bug under the
   tracer and gathers watchpoint successes; every report goes through
   [Fleet.Wire.encode] and [decode]; the server diagnoses cold (a
   capacity-0 decode cache) against its own build of the scenario; the
   top pattern is checked against ground truth. *)

module Core = Snorlax_core
module Wire = Fleet.Wire

(* Every incident reproduces from the corpus's canonical seed base.  A
   bug's reproduction cost is bimodal in the base (sqlite-1 needs about
   100 runs from some bases and 4,800 from the next), so seeded bases
   made a run's total cost swing by 15% between seeds; the workload seed
   orders the incidents instead. *)
let seed_base = 1

type env = {
  bugs : Corpus.Bug.t list;
  servers : (string, Corpus.Bug.built) Hashtbl.t;
  cold : Pt.Decode_cache.t;
}

(* The server's builds of every scenario it may be asked to diagnose. *)
let setup bugs =
  let servers = Hashtbl.create 64 in
  List.iter
    (fun (b : Corpus.Bug.t) ->
      let built = b.Corpus.Bug.build () in
      Lir.Irmod.layout built.Corpus.Bug.m;
      Hashtbl.replace servers b.Corpus.Bug.id built)
    bugs;
  { bugs; servers; cold = Pt.Decode_cache.create ~capacity:0 () }

type acc = {
  mutable incidents : int;
  mutable not_reproduced : int;
  mutable misses : int;
  mutable busy_ns : float;  (** wall time of the incidents *)
  latency : Samples.t;  (** collect start -> ranked diagnosis *)
  diagnosis : Samples.t;  (** wire decode -> ranked diagnosis *)
  rates : Samples.t;  (** per pass: incidents per second *)
  mutable pass_ns : float;  (** wall time of the current pass so far *)
  mutable pass_from : float;  (** when the current pass started *)
  mutable pass_incidents : int;
}

let acc () =
  {
    incidents = 0;
    not_reproduced = 0;
    misses = 0;
    busy_ns = 0.;
    latency = Samples.create ();
    diagnosis = Samples.create ();
    rates = Samples.create ();
    pass_ns = 0.;
    pass_from = 0.;
    pass_incidents = 0;
  }

let envelope ~incident ~bug_id ~seed ~runs (sync : Corpus.Runner.sync_profile)
    payload =
  {
    Wire.endpoint = incident;
    seed;
    bug_id;
    config = Pt.Config.default;
    prov =
      Some
        {
          Wire.runs;
          sync_ops = sync.Corpus.Runner.sync_ops;
          sync_digest = sync.Corpus.Runner.sync_digest;
        };
    payload;
  }

let run_incident env acc (bug : Corpus.Bug.t) =
  let incident = acc.incidents in
  acc.incidents <- acc.incidents + 1;
  let t0 = Trace.now () in
  match Corpus.Runner.collect bug ~seed_base () with
  | Error _ -> acc.not_reproduced <- acc.not_reproduced + 1
  | Ok c ->
    (* The loop stops on the run that completed the collection, so the
       highest seed used fixes the run count. *)
    let runs =
      List.fold_left max seed_base
        (c.Corpus.Runner.failing_seeds @ c.Corpus.Runner.success_seeds)
      - seed_base + 1
    in
    let bug_id = bug.Corpus.Bug.id in
    let packets =
      List.map2
        (fun r (seed, sync) ->
          Wire.encode (envelope ~incident ~bug_id ~seed ~runs sync (Wire.Failing r)))
        c.Corpus.Runner.failing
        (List.combine c.Corpus.Runner.failing_seeds c.Corpus.Runner.failing_sync)
      @ List.map2
          (fun r (seed, sync) ->
            Wire.encode (envelope ~incident ~bug_id ~seed ~runs sync (Wire.Success r)))
          c.Corpus.Runner.successful
          (List.combine c.Corpus.Runner.success_seeds c.Corpus.Runner.success_sync)
    in
    let t_dec = Trace.now () in
    let failing, successful =
      List.fold_right
        (fun p (f, s) ->
          match Wire.decode p with
          | Ok { Wire.payload = Wire.Failing r; _ } -> (r :: f, s)
          | Ok { Wire.payload = Wire.Success r; _ } -> (f, r :: s)
          | Error _ -> (f, s))
        packets ([], [])
    in
    let server = Hashtbl.find env.servers bug_id in
    let res =
      Core.Diagnosis.diagnose ~jobs:1 ~cache:env.cold server.Corpus.Bug.m
        ~config:Pt.Config.default ~failing ~successful
    in
    let t_end = Trace.now () in
    let matched =
      match res.Core.Diagnosis.top with
      | Some top ->
        Core.Accuracy.root_cause_match ~diagnosed:top.Core.Statistics.pattern
          ~ground_truth:server.Corpus.Bug.ground_truth
      | None -> false
    in
    if not matched then acc.misses <- acc.misses + 1;
    Samples.add acc.latency (t_end -. t0);
    Samples.add acc.diagnosis (t_end -. t_dec)

(* One measured step: the next incident of the current pass; the last
   one closes the pass's samples.  Returns its time (ns). *)
let step env passes acc =
  let t0 = Trace.now () in
  if acc.pass_ns = 0. then acc.pass_from <- t0;
  run_incident env acc (Passes.next passes);
  let dt = Trace.now () -. t0 in
  acc.busy_ns <- acc.busy_ns +. dt;
  acc.pass_ns <- acc.pass_ns +. dt;
  acc.pass_incidents <- acc.pass_incidents + 1;
  if Passes.at_end passes then begin
    Samples.close acc.latency;
    Samples.close acc.diagnosis;
    Samples.add_unit acc.rates ~from:acc.pass_from
      (float_of_int acc.pass_incidents /. (acc.pass_ns /. 1e9));
    acc.pass_ns <- 0.;
    acc.pass_incidents <- 0
  end;
  dt

let failed acc = acc.not_reproduced + acc.misses

(* Every incident must reproduce and its top pattern match ground truth. *)
let check acc =
  (if acc.not_reproduced > 0 then
     [ Printf.sprintf "%d incidents did not reproduce" acc.not_reproduced ]
   else [])
  @
  if acc.misses > 0 then
    [ Printf.sprintf "%d diagnoses missed the root cause" acc.misses ]
  else []

let e2e acc =
  [
    Out.rate "incidents_per_s" acc.rates ~ops:acc.incidents ~ns:acc.busy_ns;
    Out.timing "incident_latency_p50_ms" acc.latency 50.;
    Out.timing "incident_latency_p90_ms" acc.latency 90.;
    Out.timing "diagnosis_latency_p50_ms" acc.diagnosis 50.;
    Out.timing "diagnosis_latency_p90_ms" acc.diagnosis 90.;
  ]
