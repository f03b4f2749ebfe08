module Tablefmt = Snorlax_util.Tablefmt
module Stats = Snorlax_util.Stats

let header title =
  Printf.printf "\n=== %s ===\n" title

let hypothesis_table ~title ~kind ?samples () =
  header title;
  let rows = Hypothesis.run ?samples ~kind () in
  let atomicity = kind = Corpus.Bug.Atomicity_violation in
  let headers =
    if atomicity then
      [ "bug"; "tracker"; "dT1 avg (us)"; "sigma1"; "dT2 avg (us)"; "sigma2" ]
    else [ "bug"; "tracker"; "dT avg (us)"; "sigma" ]
  in
  let t = Tablefmt.create ~headers in
  Tablefmt.set_align t
    (Tablefmt.Left :: Tablefmt.Left
    :: List.map (fun _ -> Tablefmt.Right) (List.tl (List.tl headers)));
  List.iter
    (fun (r : Hypothesis.row) ->
      let cells =
        [ r.Hypothesis.r_bug.Corpus.Bug.id; r.Hypothesis.r_bug.Corpus.Bug.tracker_id ]
        @ List.concat
            (List.map2
               (fun a s -> [ Tablefmt.fmt_us a; Tablefmt.fmt_us s ])
               r.Hypothesis.avg_us r.Hypothesis.std_us)
      in
      Tablefmt.add_row t cells)
    rows;
  Tablefmt.print t;
  rows

let print_table1 ?samples () =
  hypothesis_table ?samples
    ~title:"Table 1: time elapsed between deadlock target events"
    ~kind:Corpus.Bug.Deadlock ()

let print_table2 ?samples () =
  hypothesis_table ?samples
    ~title:"Table 2: time elapsed between order-violation target events"
    ~kind:Corpus.Bug.Order_violation ()

let print_table3 ?samples () =
  hypothesis_table ?samples
    ~title:"Table 3: times elapsed between atomicity-violation target events"
    ~kind:Corpus.Bug.Atomicity_violation ()

let print_hypothesis_summary tables =
  let lo, hi, global_min = Hypothesis.summary tables in
  Printf.printf
    "\nHypothesis summary: per-bug averages span %.0f-%.0f us; smallest \
     single observed gap %.2f us (paper: 154-3505 us, minimum 91 us; our \
     tails reach lower, but the tracer's sub-us timing still orders them \
     — see EXPERIMENTS.md).\n"
    lo hi global_min

let print_accuracy () =
  header "Accuracy (Section 6.1) over the 11-bug evaluation set";
  let t =
    Tablefmt.create
      ~headers:[ "bug"; "kind"; "root cause"; "A_O (%)"; "top F1"; "unique" ]
  in
  Tablefmt.set_align t
    [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Left; Tablefmt.Right;
      Tablefmt.Right; Tablefmt.Left ];
  let results =
    List.map
      (fun (e : Eval_runs.entry) ->
        let ok, ao, unique = Eval_runs.accuracy_of e in
        let f1 =
          match e.Eval_runs.diagnosis.Snorlax_core.Diagnosis.top with
          | Some s -> s.Snorlax_core.Statistics.f1
          | None -> 0.0
        in
        Tablefmt.add_row t
          [
            e.Eval_runs.bug.Corpus.Bug.id;
            Corpus.Bug.kind_name e.Eval_runs.bug.Corpus.Bug.kind;
            (if ok then "correct" else "WRONG");
            Printf.sprintf "%.1f" ao;
            Printf.sprintf "%.2f" f1;
            (if unique then "yes" else "tie(resolved)");
          ];
        (e.Eval_runs.bug.Corpus.Bug.id, ok, ao, unique))
      (Eval_runs.eval_entries ())
  in
  Tablefmt.print t;
  let correct = List.length (List.filter (fun (_, ok, _, _) -> ok) results) in
  Printf.printf "Root-cause accuracy: %d/%d (paper: 100%%).\n" correct
    (List.length results);
  results

let print_figure7 () =
  header "Figure 7: per-stage contribution to candidate elimination";
  let shares, g_trace, g_rank = Stages.run () in
  let t =
    Tablefmt.create
      ~headers:("bug" :: List.map (fun n -> n ^ " (%)") Stages.stage_names)
  in
  Tablefmt.set_align t
    (Tablefmt.Left :: List.map (fun _ -> Tablefmt.Right) Stages.stage_names);
  List.iter
    (fun (s : Stages.stage_shares) ->
      Tablefmt.add_row t
        (s.Stages.bug_id
        :: List.map (fun v -> Printf.sprintf "%.1f" v) s.Stages.shares))
    shares;
  Tablefmt.print t;
  Printf.printf
    "Scope restriction shrinks the analysis %.1fx (geomean; paper: 9x); \
     type ranking a further %.1fx (paper: 4.6x).\n"
    g_trace g_rank;
  shares

let print_table4 () =
  header "Table 4: server-side analysis time and speedup vs whole-program static analysis";
  let rows, geo = Analysis_time.run () in
  let t =
    Tablefmt.create
      ~headers:
        [ "bug"; "system"; "analysis (s)"; "hybrid PTA (s)"; "static PTA (s)";
          "speedup"; "scope reduction" ]
  in
  Tablefmt.set_align t
    [ Tablefmt.Left; Tablefmt.Left; Tablefmt.Right; Tablefmt.Right;
      Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ];
  List.iter
    (fun (r : Analysis_time.row) ->
      Tablefmt.add_row t
        [
          r.Analysis_time.bug_id;
          r.Analysis_time.system;
          Printf.sprintf "%.4f" r.Analysis_time.analysis_s;
          Printf.sprintf "%.5f" r.Analysis_time.hybrid_pta_s;
          Printf.sprintf "%.5f" r.Analysis_time.static_pta_s;
          Tablefmt.fmt_x r.Analysis_time.speedup;
          Tablefmt.fmt_x r.Analysis_time.scope_reduction;
        ])
    rows;
  Tablefmt.print t;
  Printf.printf "Geometric-mean speedup: %.1fx (paper: 24x).\n" geo;
  rows

let print_figure8 ?seeds () =
  header "Figure 8: runtime overhead of control-flow tracing (2 threads)";
  let rows, avg = Overhead.run ?seeds () in
  let t = Tablefmt.create ~headers:[ "system"; "overhead (%)"; "peak (%)" ] in
  Tablefmt.set_align t [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right ];
  List.iter
    (fun (r : Overhead.row) ->
      Tablefmt.add_row t
        [
          r.Overhead.system;
          Tablefmt.fmt_pct r.Overhead.avg_pct;
          Tablefmt.fmt_pct r.Overhead.peak_pct;
        ])
    rows;
  Tablefmt.print t;
  Printf.printf "Average overhead: %.2f%% (paper: 0.97%%, peak pbzip2 1.91%%).\n" avg;
  rows

let print_figure9 ?threads () =
  header "Figure 9: scalability with application thread count";
  let points = Scalability.run ?threads () in
  let t =
    Tablefmt.create ~headers:[ "threads"; "snorlax (%)"; "gist (%)" ]
  in
  List.iter
    (fun (p : Scalability.point) ->
      Tablefmt.add_row t
        [
          string_of_int p.Scalability.threads;
          Tablefmt.fmt_pct p.Scalability.snorlax_pct;
          Tablefmt.fmt_pct p.Scalability.gist_pct;
        ])
    points;
  Tablefmt.print t;
  Printf.printf
    "(paper: Snorlax 0.87%% -> 1.98%%, Gist 3.14%% -> 38.9%% over 2 -> 32 \
     threads)\n";
  points

let print_latency () =
  header "Diagnosis latency vs Gist (Section 6.3)";
  let rows, avg = Latency.run () in
  let t =
    Tablefmt.create
      ~headers:[ "bug"; "snorlax failures"; "gist recurrences"; "slice size" ]
  in
  Tablefmt.set_align t
    [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right ];
  List.iter
    (fun (r : Latency.row) ->
      Tablefmt.add_row t
        [
          r.Latency.bug_id;
          string_of_int r.Latency.snorlax_failures;
          string_of_int r.Latency.gist_recurrences;
          string_of_int r.Latency.slice_size;
        ])
    rows;
  Tablefmt.print t;
  Printf.printf
    "Average Gist recurrences: %.1f (paper: 3.7).  With Chromium's 684 \
     tracked races, Gist needs ~%.0f failing executions per diagnosis \
     (paper: 2523) versus Snorlax's 1.\n"
    avg
    (Latency.chromium_scenario ~avg_recurrences:avg ~tracked_bugs:684);
  rows

let print_hypothesis ?samples () =
  let t1 = print_table1 ?samples () in
  let t2 = print_table2 ?samples () in
  let t3 = print_table3 ?samples () in
  print_hypothesis_summary [ t1; t2; t3 ]

let print_all ?samples () =
  print_hypothesis ?samples ();
  ignore (print_accuracy ());
  ignore (print_figure7 ());
  ignore (print_table4 ());
  ignore (print_figure8 ());
  ignore (print_figure9 ());
  ignore (print_latency ());
  Ablations.print_all ()
