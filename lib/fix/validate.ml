module Core = Snorlax_core
module Hb = Analysis.Hb
module Pool = Snorlax_util.Pool

(* The semantic referee for synthesized patches.  Synthesis only promises
   the patched module still verifies; this module decides whether the bug
   is actually gone, on three kinds of evidence:

   - the original failing seed, replayed under the same traced harness
     [Runner.collect] reproduced it with, must no longer fail;
   - a sweep of seeds, run with the HB oracle attached on both the
     pristine and the patched module, must show no failure the baseline
     did not already show, no new hang, and no new racy pair;
   - the diagnosed pattern's own claims must be dead: its instruction
     pairs no longer racy, and (for deadlocks) no crossed lock windows
     left unguarded by a common gate.

   Anything the baseline itself exhibits (the bug's failure signature,
   its racy pairs) can only ever demote a patch to [Not_fixed]; only
   behaviour the baseline never showed makes a patch [Regressed]. *)

type verdict = Fixed | Not_fixed of string | Regressed of string

let verdict_name = function
  | Fixed -> "fixed"
  | Not_fixed _ -> "not-fixed"
  | Regressed _ -> "regressed"

let verdict_reason = function
  | Fixed -> ""
  | Not_fixed r | Regressed r -> r

type judgement = {
  verdict : verdict;
  replay_ok : bool;  (** failing seed completed under the patch *)
  runs : int;  (** simulated executions this judgement performed *)
  notes : string list;
}

type attempt = {
  template : Patch.template;
  outcome : (judgement, string) result;  (** [Error] = synthesis refused *)
}

type bug_report = {
  bug_id : string;
  bug_kind : string;
  pattern : string option;  (** [Patterns.id] of the diagnosis top scorer *)
  verdict : verdict;
  template : Patch.template option;  (** the winning (or last tried) template *)
  patch : string option;  (** winning patch description *)
  attempts : attempt list;
  replay_ok : bool;
  sweep_seeds : int;
  runs : int;
  secs : float;
  notes : string list;
}

(* --- observed executions -------------------------------------------------- *)

type observed = {
  out : (Sim.Interp.run_result, string) result;
      (** [Error] captures host-level exceptions (e.g. unlocking an unheld
          mutex) that a broken patch can provoke *)
  engine : Hb.t;
}

let plain_run m ~entry ~seed =
  let engine = Hb.create () in
  let config =
    { Sim.Interp.default_config with seed; hooks = Oracle.Observe.hooks engine }
  in
  let out =
    try Ok (Sim.Interp.run ~config m ~entry) with Failure msg -> Error msg
  in
  { out; engine }

let traced_run built ~entry ~seed =
  try
    Ok
      (Corpus.Runner.run_traced ~built ~entry ~seed ~pt_config:Pt.Config.default
         ~watch_pcs:[] ())
        .Corpus.Runner.result
  with Failure msg -> Error msg

(* A failure's identity across the pristine/patched builds: class label
   plus anchor iid.  Patches never renumber original instructions, so
   matching signatures really is the same failure. *)
let signature f =
  let r = Core.Report.of_sim_failure f ~time_ns:0. ~traces:[] in
  (Core.Report.kind_label r, Core.Report.failing_anchor_iid r)

let race_pairs engine =
  List.map
    (fun (r : Hb.race) -> Core.Patterns.norm_pair (r.Hb.a_iid, r.Hb.b_iid))
    (Hb.races engine)

(* Crossed hold-while-acquiring facts from two threads with no common
   gate: thread [t1] held [la] wanting [lb] while [t2] held [lb] wanting
   [la], and no lock was held by both threads across those attempts.  A
   gate-serialized patch leaves the crossed facts in place but guards
   them, so guarded crossings are fine; an unguarded one means the cycle
   can still close. *)
let unguarded_two_cycle edges =
  let guarded t1 lb t2 la =
    List.exists
      (fun (t, g, _, w, _) ->
        t = t1 && w = lb
        && List.exists
             (fun (t', g', _, w', _) -> t' = t2 && w' = la && g' = g)
             edges)
      edges
  in
  List.exists
    (fun (t1, la, _, lb, _) ->
      List.exists
        (fun (t2, lc, _, ld, _) ->
          t1 <> t2 && lc = lb && ld = la && not (guarded t1 lb t2 la))
        edges)
    edges

(* --- baseline ------------------------------------------------------------- *)

type baseline = {
  sigs : (string * int) list;
      (** failure signatures: collected failing reports + sweep failures *)
  races : (int * int) list;  (** racy pairs seen in any baseline run *)
  hangs : bool;  (** some baseline run got stuck / ran out of fuel *)
  runs : int;
}

let report_signature (r : Core.Report.failing_report) =
  (Core.Report.kind_label r, Core.Report.failing_anchor_iid r)

let baseline_of ~(collected : Corpus.Runner.collected) ~entry ~seeds =
  let m = collected.Corpus.Runner.built.Corpus.Bug.m in
  let sigs = ref (List.map report_signature collected.Corpus.Runner.failing) in
  let races = ref [] in
  let hangs = ref false in
  let completed = ref 0 in
  let runs = ref 0 in
  let observe seed =
    incr runs;
    let o = plain_run m ~entry ~seed in
    (match o.out with
    | Ok { Sim.Interp.outcome = Sim.Interp.Failed { failure; _ }; _ } ->
      sigs := signature failure :: !sigs
    | Ok { Sim.Interp.outcome = Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted; _ }
      ->
      hangs := true
    | Ok { Sim.Interp.outcome = Sim.Interp.Completed; _ } -> incr completed
    | Error _ -> ());
    races := race_pairs o.engine @ !races
  in
  List.iter observe seeds;
  (* The patched program will mostly COMPLETE, so the baseline must
     contain at least one completed pristine execution — otherwise
     benign races in post-failure code (a done-flag handshake, a stats
     counter) would read as patch-introduced.  The collection phase
     already knows seeds that succeeded under tracing; sample those, then
     probe fresh seeds as a last resort. *)
  let extra =
    List.filteri (fun i _ -> i < 5) collected.Corpus.Runner.success_seeds
    @ List.init 40 (fun i -> 223_000 + (911 * i))
  in
  let rec ensure_completed = function
    | [] -> ()
    | s :: rest ->
      if !completed = 0 then begin
        observe s;
        ensure_completed rest
      end
  in
  ensure_completed (List.filter (fun s -> not (List.mem s seeds)) extra);
  {
    sigs = List.sort_uniq compare !sigs;
    races = List.sort_uniq compare !races;
    hangs = !hangs;
    runs = !runs;
  }

(* --- judging one patched module ------------------------------------------- *)

let judge_patch ~(bug : Corpus.Bug.t) ~(collected : Corpus.Runner.collected)
    ~(pattern : Core.Patterns.t) ?baseline ~sweep_seeds m_patched =
  let entry = bug.Corpus.Bug.entry in
  let runs = ref 0 in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let base =
    match baseline with
    | Some b -> b
    | None ->
      let b = baseline_of ~collected ~entry ~seeds:sweep_seeds in
      runs := !runs + b.runs;
      b
  in
  let finish verdict replay_ok =
    { verdict; replay_ok; runs = !runs; notes = List.rev !notes }
  in
  (* 1. The original failing interleaving, under the traced harness the
     failure was collected with (tracing has virtual-time cost, so only
     the same harness re-takes the same schedule). *)
  let f0 =
    match collected.Corpus.Runner.failing_seeds with
    | s :: _ -> s
    | [] -> invalid_arg "Validate.judge_patch: no failing seed"
  in
  let patched_built =
    { collected.Corpus.Runner.built with Corpus.Bug.m = m_patched }
  in
  incr runs;
  match traced_run patched_built ~entry ~seed:f0 with
  | Error msg -> finish (Regressed ("failing-seed replay raised: " ^ msg)) false
  | Ok { Sim.Interp.outcome = Sim.Interp.Failed { failure; _ }; _ } ->
    let s = signature failure in
    if List.mem s base.sigs then begin
      note "failing seed %d still fails (%s @%d)" f0 (fst s) (snd s);
      finish (Not_fixed "failure reproduces on the failing seed") false
    end
    else begin
      note "failing seed %d now fails differently (%s @%d)" f0 (fst s) (snd s);
      finish (Regressed "new failure on the failing seed") false
    end
  | Ok { Sim.Interp.outcome = Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted; _ }
    ->
    finish (Regressed "failing seed hangs under the patch") false
  | Ok { Sim.Interp.outcome = Sim.Interp.Completed; _ } ->
    note "failing seed %d completes under the patch" f0;
    (* 2. The oracle sweep: pristine-vs-patched differential at every
       sweep seed, plus the pattern's own claims. *)
    let verdict = ref None in
    let worst v =
      (* A regression beats a not-fixed beats nothing; first reason kept. *)
      match (!verdict, v) with
      | None, v -> verdict := Some v
      | Some (Not_fixed _), Regressed _ -> verdict := Some v
      | Some _, _ -> ()
    in
    let pairs = Core.Patterns.claimed_pairs pattern in
    List.iter
      (fun seed ->
        let o = plain_run m_patched ~entry ~seed in
        (match o.out with
        | Error msg ->
          note "seed %d raised: %s" seed msg;
          worst (Regressed "patched run raised a host failure")
        | Ok { Sim.Interp.outcome = Sim.Interp.Failed { failure; _ }; _ } ->
          let s = signature failure in
          if List.mem s base.sigs then begin
            note "seed %d: failure reproduces (%s @%d)" seed (fst s) (snd s);
            worst (Not_fixed "failure reproduces in the sweep")
          end
          else begin
            note "seed %d: new failure %s @%d" seed (fst s) (snd s);
            worst (Regressed "new failure in the sweep")
          end
        | Ok
            {
              Sim.Interp.outcome =
                Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted;
              _;
            } ->
          if not base.hangs then begin
            note "seed %d: hang" seed;
            worst (Regressed "patched run hangs")
          end
        | Ok { Sim.Interp.outcome = Sim.Interp.Completed; _ } -> ());
        incr runs;
        let fresh =
          List.filter
            (fun p -> not (List.mem p base.races))
            (race_pairs o.engine)
        in
        if fresh <> [] then begin
          let a, b = List.hd fresh in
          note "seed %d: new racy pair (%d, %d)" seed a b;
          worst (Regressed "patch introduced a racy pair")
        end;
        List.iter
          (fun (a, b) ->
            match Hb.pair_verdict o.engine a b with
            | Hb.Conflict { ordering = Hb.Racy; _ } ->
              note "seed %d: claimed pair (%d, %d) still racy" seed a b;
              worst (Not_fixed "diagnosed pair still racy")
            | Hb.Conflict { ordering = Hb.Lock_ordered | Hb.Enforced; _ }
            | Hb.No_conflict ->
              ())
          pairs;
        match pattern with
        | Core.Patterns.Deadlock_cycle _ ->
          if unguarded_two_cycle (Hb.lock_edges o.engine) then begin
            note "seed %d: crossed lock windows remain unguarded" seed;
            worst (Not_fixed "lock cycle still possible")
          end
        | Core.Patterns.Order _ | Core.Patterns.Atomicity _ -> ())
      sweep_seeds;
    finish (match !verdict with None -> Fixed | Some v -> v) true

(* --- the per-bug ladder --------------------------------------------------- *)

let default_sweep_seeds = 10

(* Sweep seeds live far from the collection range so the oracle judges
   interleavings the diagnosis never saw; the failing seed itself is
   swept too (under the plain harness it is just one more seed). *)
let sweep_seed_list ~collected ~seeds =
  let f0 =
    match collected.Corpus.Runner.failing_seeds with s :: _ -> s | [] -> 1
  in
  f0 :: List.init seeds (fun i -> 100_000 + (211 * i))

let fix_bug ?jobs ?cache ?(seeds = default_sweep_seeds) (bug : Corpus.Bug.t) =
  let t0 = Obs.Span.wall_clock_ns () in
  match Corpus.Runner.collect bug () with
  | Error e -> Error e
  | Ok c ->
    let res =
      Core.Diagnosis.diagnose ?jobs ?cache c.Corpus.Runner.built.Corpus.Bug.m
        ~config:Pt.Config.default ~failing:c.Corpus.Runner.failing
        ~successful:c.Corpus.Runner.successful
    in
    let runs = ref c.Corpus.Runner.runs_needed in
    let finish ~pattern ~verdict ~template ~patch ~attempts ~replay_ok ~notes =
      let secs = (Obs.Span.wall_clock_ns () -. t0) /. 1e9 in
      Obs.Scope.count
        (match verdict with
        | Fixed -> "fix/fixed"
        | Not_fixed _ -> "fix/not_fixed"
        | Regressed _ -> "fix/regressed")
        1;
      Ok
        {
          bug_id = bug.Corpus.Bug.id;
          bug_kind = Corpus.Bug.kind_name bug.Corpus.Bug.kind;
          pattern;
          verdict;
          template;
          patch;
          attempts;
          replay_ok;
          sweep_seeds = seeds;
          runs = !runs;
          secs;
          notes;
        }
    in
    (match res.Core.Diagnosis.top with
    | None ->
      finish ~pattern:None
        ~verdict:(Not_fixed "diagnosis produced no pattern to patch")
        ~template:None ~patch:None ~attempts:[] ~replay_ok:false ~notes:[]
    | Some top ->
      let pattern = top.Core.Statistics.pattern in
      let entry = bug.Corpus.Bug.entry in
      let sweep_seeds = sweep_seed_list ~collected:c ~seeds in
      let baseline = baseline_of ~collected:c ~entry ~seeds:sweep_seeds in
      runs := !runs + baseline.runs;
      let attempts = ref [] in
      let rec ladder = function
        | [] -> None
        | template :: rest ->
          let fresh = bug.Corpus.Bug.build () in
          let outcome =
            match
              Patch.synthesize ~m:fresh.Corpus.Bug.m ~pattern template
            with
            | Error e -> Error e
            | Ok p ->
              let j =
                judge_patch ~bug ~collected:c ~pattern ~baseline ~sweep_seeds
                  fresh.Corpus.Bug.m
              in
              runs := !runs + j.runs;
              Ok (p, j)
          in
          attempts :=
            {
              template;
              outcome = Result.map (fun (_, j) -> j) outcome;
            }
            :: !attempts;
          (match outcome with
          | Ok (p, j) when j.verdict = Fixed -> Some (template, p, j)
          | Ok _ | Error _ -> ladder rest)
      in
      let won = ladder (Patch.candidates pattern) in
      let attempts = List.rev !attempts in
      let pattern_id = Some (Core.Patterns.id pattern) in
      (match won with
      | Some (template, p, j) ->
        finish ~pattern:pattern_id ~verdict:Fixed ~template:(Some template)
          ~patch:(Some p.Patch.description) ~attempts ~replay_ok:j.replay_ok
          ~notes:j.notes
      | None ->
        (* No template fixed it: report the mildest failure (a not-fixed
           attempt over a regressed one over a synthesis refusal). *)
        let ranked =
          List.concat_map
            (fun (a : attempt) ->
              match a.outcome with
              | Ok j -> (
                match j.verdict with
                | Not_fixed _ -> [ (0, a.template, j.verdict, j) ]
                | Regressed _ -> [ (1, a.template, j.verdict, j) ]
                | Fixed -> [])
              | Error _ -> [])
            attempts
        in
        (match List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) ranked with
        | (_, template, verdict, j) :: _ ->
          finish ~pattern:pattern_id ~verdict ~template:(Some template)
            ~patch:None ~attempts ~replay_ok:j.replay_ok ~notes:j.notes
        | [] ->
          let why =
            String.concat "; "
              (List.map
                 (fun (a : attempt) ->
                   Printf.sprintf "%s: %s"
                     (Patch.template_name a.template)
                     (match a.outcome with Error e -> e | Ok _ -> "?"))
                 attempts)
          in
          finish ~pattern:pattern_id
            ~verdict:(Not_fixed ("no applicable template: " ^ why))
            ~template:None ~patch:None ~attempts ~replay_ok:false ~notes:[])))

(* --- the corpus-wide sweep ------------------------------------------------ *)

let fix_all ?jobs ?(sweep_jobs = 1) ?cache ?seeds bugs =
  let jobs =
    if Pool.lanes ~jobs:sweep_jobs (List.length bugs) > 1 then Some 1 else jobs
  in
  Obs.Scope.sweep ~jobs:sweep_jobs
    (fun (b : Corpus.Bug.t) -> (b.Corpus.Bug.id, fix_bug ?jobs ?cache ?seeds b))
    bugs

(* --- reporting ------------------------------------------------------------ *)

type summary = {
  bugs : int;
  fixed : int;
  not_fixed : int;
  regressed : int;
  errors : int;
  fix_rate : float;  (** fixed / all bugs, reproduction failures included *)
  by_kind : (string * int * int) list;  (** kind, fixed, total *)
  total_runs : int;
  total_secs : float;
  wall_secs : float;
  seeds_per_sec : float;
  lane_seeds_per_sec : float;
}

let rate runs secs = if secs > 0. then float_of_int runs /. secs else 0.

let summarize ~wall_secs results =
  let bugs = List.length results in
  let fixed = ref 0 and not_fixed = ref 0 and regressed = ref 0 in
  let errors = ref 0 in
  let total_runs = ref 0 and total_secs = ref 0. in
  let kinds = Hashtbl.create 4 in
  List.iter
    (fun (_, r) ->
      match r with
      | Error _ -> incr errors
      | Ok (b : bug_report) ->
        total_runs := !total_runs + b.runs;
        total_secs := !total_secs +. b.secs;
        let f, t = try Hashtbl.find kinds b.bug_kind with Not_found -> (0, 0) in
        let won = match b.verdict with Fixed -> 1 | _ -> 0 in
        Hashtbl.replace kinds b.bug_kind (f + won, t + 1);
        (match b.verdict with
        | Fixed -> incr fixed
        | Not_fixed _ -> incr not_fixed
        | Regressed _ -> incr regressed))
    results;
  {
    bugs;
    fixed = !fixed;
    not_fixed = !not_fixed;
    regressed = !regressed;
    errors = !errors;
    fix_rate = (if bugs = 0 then 0. else float_of_int !fixed /. float_of_int bugs);
    by_kind =
      List.sort compare
        (Hashtbl.fold (fun k (f, t) acc -> (k, f, t) :: acc) kinds []);
    total_runs = !total_runs;
    total_secs = !total_secs;
    wall_secs;
    seeds_per_sec = rate !total_runs wall_secs;
    lane_seeds_per_sec = rate !total_runs !total_secs;
  }

let attempt_json (a : attempt) =
  Obs.Json.Obj
    [
      ("template", Obs.Json.String (Patch.template_name a.template));
      ( "outcome",
        Obs.Json.String
          (match a.outcome with
          | Error e -> "synthesis-error: " ^ e
          | Ok j -> (
            match j.verdict with
            | Fixed -> "fixed"
            | Not_fixed r -> "not-fixed: " ^ r
            | Regressed r -> "regressed: " ^ r)) );
    ]

let report_json (b : bug_report) =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String b.bug_kind);
      ( "pattern",
        match b.pattern with
        | Some p -> Obs.Json.String p
        | None -> Obs.Json.Null );
      ("verdict", Obs.Json.String (verdict_name b.verdict));
      ("reason", Obs.Json.String (verdict_reason b.verdict));
      ( "template",
        match b.template with
        | Some t -> Obs.Json.String (Patch.template_name t)
        | None -> Obs.Json.Null );
      ( "patch",
        match b.patch with Some p -> Obs.Json.String p | None -> Obs.Json.Null
      );
      ("attempts", Obs.Json.List (List.map attempt_json b.attempts));
      ("replay_ok", Obs.Json.Bool b.replay_ok);
      ("sweep_seeds", Obs.Json.Int b.sweep_seeds);
      ("runs", Obs.Json.Int b.runs);
      ("secs", Obs.Json.Float b.secs);
      ("notes", Obs.Json.List (List.map (fun n -> Obs.Json.String n) b.notes));
    ]

let to_json ~wall_secs results =
  let s = summarize ~wall_secs results in
  Obs.Json.Obj
    [
      ( "summary",
        Obs.Json.Obj
          [
            ("bugs", Obs.Json.Int s.bugs);
            ("fixed", Obs.Json.Int s.fixed);
            ("not_fixed", Obs.Json.Int s.not_fixed);
            ("regressed", Obs.Json.Int s.regressed);
            ("errors", Obs.Json.Int s.errors);
            ("fix_rate", Obs.Json.Float s.fix_rate);
            ( "by_kind",
              Obs.Json.Obj
                (List.map
                   (fun (k, f, t) ->
                     ( k,
                       Obs.Json.Obj
                         [
                           ("fixed", Obs.Json.Int f); ("total", Obs.Json.Int t);
                         ] ))
                   s.by_kind) );
            ("total_runs", Obs.Json.Int s.total_runs);
            ("total_secs", Obs.Json.Float s.total_secs);
            ("wall_secs", Obs.Json.Float s.wall_secs);
            ("validation_seeds_per_sec", Obs.Json.Float s.seeds_per_sec);
            ("lane_seeds_per_sec", Obs.Json.Float s.lane_seeds_per_sec);
          ] );
      ( "bugs",
        Obs.Json.Obj
          (List.map
             (fun (id, r) ->
               ( id,
                 match r with
                 | Error e ->
                   Obs.Json.Obj [ ("error", Obs.Json.String e) ]
                 | Ok b -> report_json b ))
             results) );
    ]
