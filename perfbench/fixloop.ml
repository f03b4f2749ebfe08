(* The fix workload: a closed loop running [Fix.Validate.fix_bug] on each
   bug in turn — reproduce, diagnose, synthesize, validate — in whole
   passes over the bug list ([Passes]). *)

module Core = Snorlax_core
module Validate = Fix.Validate

type acc = {
  mutable verdicts : int;
  mutable not_fixed : int;
  mutable runs : int;  (** simulated executions, from each [bug_report.runs] *)
  mutable busy_ns : float;
  latency : Samples.t;  (** per-bug verdict latency *)
  rates : Samples.t;  (** per pass: simulated runs per second *)
  mutable pass_ns : float;  (** wall time of the current pass so far *)
  mutable pass_from : float;  (** when the current pass started *)
  mutable pass_runs : int;
  mutable results : (string * (Validate.bug_report, string) result) list;
      (** every verdict, for the check *)
  mutable attempts : int;
  mutable walked : (string * string) list;  (** bug id, verdict of [walk_bug] *)
}

let acc () =
  {
    verdicts = 0;
    not_fixed = 0;
    runs = 0;
    busy_ns = 0.;
    latency = Samples.create ();
    rates = Samples.create ();
    pass_ns = 0.;
    pass_from = 0.;
    pass_runs = 0;
    results = [];
    attempts = 0;
    walked = [];
  }

let fixed = function
  | Ok (r : Validate.bug_report) -> r.Validate.verdict = Validate.Fixed
  | Error _ -> false

let run_bug ?cache acc (bug : Corpus.Bug.t) =
  let t0 = Trace.now () in
  let r = Validate.fix_bug ~jobs:1 ?cache bug in
  Samples.add acc.latency (Trace.now () -. t0);
  acc.verdicts <- acc.verdicts + 1;
  if not (fixed r) then acc.not_fixed <- acc.not_fixed + 1;
  (match r with
  | Ok r ->
    acc.runs <- acc.runs + r.Validate.runs;
    acc.pass_runs <- acc.pass_runs + r.Validate.runs
  | Error _ -> ());
  (bug.Corpus.Bug.id, r)

(* The traced run walks the same steps as [fix_bug] through the public
   functions it is built from, with a span around each: reproduction,
   diagnosis, the pristine baseline sweep and each patch judgement
   ([fix.judge]), each template's fresh build and synthesis
   ([fix.synthesize]).  Its untraced units take the same walk with
   recording off, so the tracing overhead compares like with like.  The
   check holds its verdicts to [fix_all]'s. *)
let walk_bug acc (bug : Corpus.Bug.t) =
  let req = acc.verdicts in
  let t0 = Trace.now () in
  let verdict =
    match Trace.with_ ~req "corpus.collect" (fun () -> Corpus.Runner.collect bug ()) with
    | Error _ -> "error"
    | Ok c -> (
      let m = c.Corpus.Runner.built.Corpus.Bug.m in
      let sp = Trace.start ~req "core.diagnose" in
      let res =
        Core.Diagnosis.diagnose ~jobs:1 m ~config:Pt.Config.default
          ~failing:c.Corpus.Runner.failing ~successful:c.Corpus.Runner.successful
      in
      let t_end = Trace.now () in
      Trace.import_stages ~req res.Core.Diagnosis.spans;
      Trace.finish ~at:t_end sp;
      match res.Core.Diagnosis.top with
      | None -> "not-fixed"
      | Some top ->
        let pattern = top.Core.Statistics.pattern in
        let sweep_seeds =
          Validate.sweep_seed_list ~collected:c ~seeds:Validate.default_sweep_seeds
        in
        let baseline =
          Trace.with_ ~req "fix.judge" (fun () ->
              Validate.baseline_of ~collected:c ~entry:bug.Corpus.Bug.entry
                ~seeds:sweep_seeds)
        in
        let rec ladder verdicts = function
          | [] ->
            (* [fix_bug]'s mildest failure: not-fixed over regressed. *)
            if List.mem "not-fixed" verdicts || verdicts = [] then "not-fixed"
            else "regressed"
          | template :: rest -> (
            acc.attempts <- acc.attempts + 1;
            let patched =
              Trace.with_ ~req "fix.synthesize" (fun () ->
                  let fresh = bug.Corpus.Bug.build () in
                  Result.map
                    (fun _ -> fresh.Corpus.Bug.m)
                    (Fix.Patch.synthesize ~m:fresh.Corpus.Bug.m ~pattern template))
            in
            match patched with
            | Error _ -> ladder verdicts rest
            | Ok pm ->
              let j =
                Trace.with_ ~req "fix.judge" (fun () ->
                    Validate.judge_patch ~bug ~collected:c ~pattern ~baseline
                      ~sweep_seeds pm)
              in
              if j.Validate.verdict = Validate.Fixed then "fixed"
              else ladder (Validate.verdict_name j.Validate.verdict :: verdicts) rest)
        in
        ladder [] (Fix.Patch.candidates pattern))
  in
  Samples.add acc.latency (Trace.now () -. t0);
  acc.verdicts <- acc.verdicts + 1;
  if verdict <> "fixed" then acc.not_fixed <- acc.not_fixed + 1;
  acc.walked <- (bug.Corpus.Bug.id, verdict) :: acc.walked

(* One measured step: [fix_bug] on the next bug of the current pass, or
   with [walk] its step-by-step walk; the last bug closes the pass's
   samples.  Returns its time (ns). *)
let step passes ?cache ~walk acc =
  let t0 = Trace.now () in
  if acc.pass_ns = 0. then acc.pass_from <- t0;
  let bug = Passes.next passes in
  if walk then walk_bug acc bug
  else acc.results <- run_bug ?cache acc bug :: acc.results;
  let dt = Trace.now () -. t0 in
  acc.busy_ns <- acc.busy_ns +. dt;
  acc.pass_ns <- acc.pass_ns +. dt;
  if Passes.at_end passes then begin
    Samples.close acc.latency;
    Samples.add_unit acc.rates ~from:acc.pass_from
      (float_of_int acc.pass_runs /. (acc.pass_ns /. 1e9));
    acc.pass_ns <- 0.;
    acc.pass_runs <- 0
  end;
  dt

(* --- check ------------------------------------------------------------ *)

let key = function
  | Error e -> ("error", e, None, None, 0)
  | Ok (r : Validate.bug_report) ->
    ( Validate.verdict_name r.Validate.verdict,
      Validate.verdict_reason r.Validate.verdict,
      Option.map Fix.Patch.template_name r.Validate.template,
      r.Validate.pattern,
      r.Validate.runs )

(* [fix_all]'s verdict table per bug list, computed once per run. *)
let references = Hashtbl.create 2

let reference bugs =
  let ids = List.map (fun (b : Corpus.Bug.t) -> b.Corpus.Bug.id) bugs in
  match Hashtbl.find_opt references ids with
  | Some r -> r
  | None ->
    let r = Validate.fix_all ~jobs:1 bugs in
    Hashtbl.add references ids r;
    r

(* Every verdict must equal the one [fix_all] produces sequentially for
   that bug; the walk's verdicts must agree with it too. *)
let check bugs acc =
  let reference = reference bugs in
  let expect id = key (List.assoc id reference) in
  let errs = ref [] in
  List.iter
    (fun (id, r) ->
      if key r <> expect id then
        errs := Printf.sprintf "%s: verdict differs from fix_all" id :: !errs)
    acc.results;
  List.iter
    (fun (id, v) ->
      let expected, _, _, _, _ = expect id in
      if v <> expected then
        errs := Printf.sprintf "%s: walked verdict differs from fix_all" id :: !errs)
    acc.walked;
  List.rev !errs

let failed acc = acc.not_fixed

let e2e acc =
  [
    Out.rate "validation_seeds_per_s" acc.rates ~ops:acc.runs ~ns:acc.busy_ns;
    Out.timing "verdict_latency_p50_ms" acc.latency 50.;
    Out.timing "verdict_latency_p90_ms" acc.latency 90.;
  ]

let layers bugs acc =
  let reference = reference bugs in
  let bugs = float_of_int (max 1 acc.verdicts) in
  (* The walk's simulated-run count per bug, read from the verdict table
     the check proved it agrees with. *)
  let runs =
    List.fold_left
      (fun a (id, _) ->
        match List.assoc_opt id reference with
        | Some (Ok (r : Validate.bug_report)) -> a + r.Validate.runs
        | _ -> a)
      0 acc.walked
  in
  [
    ("fix.synthesize_ms", Trace.total_ns "fix.synthesize" /. bugs /. 1e6, "ms");
    ("fix.judge_ms", Trace.total_ns "fix.judge" /. bugs /. 1e6, "ms");
    ("fix.attempts_per_bug", float_of_int acc.attempts /. bugs, "count");
    ("fix.runs_per_bug", float_of_int runs /. bugs, "count");
    ("sim.runs", float_of_int runs, "count");
  ]
