module Core = Snorlax_core
module Report = Core.Report

type policy = { max_failing : int; max_success : int; max_pending : int }

let default_policy = { max_failing = 4; max_success = 40; max_pending = 64 }

(* Per-report provenance material for Lumos-style mining: categorical
   features (exact-match) and numeric features (threshold-split).  Kept
   for every *seen* report up to [prov_cap] per class, not just the
   sampled ones — feature statistics improve with fleet volume even when
   the trace payloads are dropped. *)
type prov_sample = {
  s_feats : (string * string) list;
  s_nums : (string * int) list;
}

let prov_cap = 512

(* Arrival stamps (wall-clock ns) of every report routed to the bucket,
   capped; the report->diagnosis latency histogram reads these when the
   bucket is finally diagnosed. *)
let arrival_cap = 1024

type bucket = {
  signature : Signature.t;
  config : Pt.Config.t;
  watch_pcs : int list;
  mutable endpoints : int list;
  (* Kept reports are consed on (newest first) so ingest stays O(1) per
     packet; [failing]/[successful] reverse them back to arrival order. *)
  mutable failing_rev : Report.failing_report list;
  mutable successful_rev : Report.success_report list;
  mutable failing_seen : int;
  mutable success_seen : int;
  mutable wire_bytes : int;
  mutable failing_prov_rev : prov_sample list;
  mutable success_prov_rev : prov_sample list;
  mutable arrivals_rev : float list;
}

let failing b = List.rev b.failing_rev
let successful b = List.rev b.successful_rev
let failing_kept b = List.length b.failing_rev
let success_kept b = List.length b.successful_rev
let failing_dropped b = b.failing_seen - failing_kept b
let success_dropped b = b.success_seen - success_kept b
let arrivals b = List.rev b.arrivals_rev

type totals = {
  received : int;
  wire_bytes : int;
  decode_errors : int;
  failing_received : int;
  success_received : int;
  unrouted : int;
  pending_dropped : int;
}

type pending_success = {
  p_endpoint : int;
  p_report : Report.success_report;
  p_bytes : int;
  p_prov : prov_sample;
  p_arrival : float;
}

(* --- provenance features ------------------------------------------------ *)

let log2_bucket v =
  if v <= 0 then 0 else snd (Float.frexp (float_of_int v))

(* The feature vector of one report: envelope-level knobs (endpoint id,
   ring size, timing mode) are always present; prov-block features only
   exist on v2 packets.  [sync_tail] is categorical (exact digest match
   = "the same recent sync history"); [sync_ops]/[runs] are numeric and
   mined by threshold split. *)
let prov_sample_of (env : Wire.envelope) =
  let tag, period = Pt.Config.timing_code env.Wire.config.Pt.Config.timing in
  let base =
    [
      ("endpoint", string_of_int env.Wire.endpoint);
      ( "ring_kb",
        string_of_int (env.Wire.config.Pt.Config.buffer_size / 1024) );
      ("timing", Printf.sprintf "%d/%d" tag period);
    ]
  in
  match env.Wire.prov with
  | None -> { s_feats = base; s_nums = [] }
  | Some p ->
    {
      s_feats =
        base
        @ [
            ("sync_tail", Printf.sprintf "%08x" (p.Wire.sync_digest land 0xffffffff));
            ("sync_ops_log2", string_of_int (log2_bucket p.Wire.sync_ops));
          ];
      s_nums = [ ("sync_ops", p.Wire.sync_ops); ("runs", p.Wire.runs) ];
    }

type t = {
  policy : policy;
  modules : (string, Corpus.Bug.built) Hashtbl.t;  (* bug id -> server build *)
  mutable bucket_list : bucket list;  (* newest first *)
  by_key : (string, bucket) Hashtbl.t;
  pending : (string, pending_success list) Hashtbl.t;
      (* bug id -> held, newest first *)
  mutable received : int;
  mutable total_wire_bytes : int;
  mutable decode_errors : int;
  mutable failing_received : int;
  mutable success_received : int;
  mutable pending_dropped : int;
}

let create ?(policy = default_policy) ?(modules = Hashtbl.create 8) () =
  if policy.max_pending < 0 then invalid_arg "Collector.create: max_pending < 0";
  {
    policy;
    modules;
    bucket_list = [];
    by_key = Hashtbl.create 16;
    pending = Hashtbl.create 8;
    received = 0;
    total_wire_bytes = 0;
    decode_errors = 0;
    failing_received = 0;
    success_received = 0;
    pending_dropped = 0;
  }

let built_for t bug_id =
  match Hashtbl.find_opt t.modules bug_id with
  | Some b -> Ok b
  | None -> (
    match Corpus.Registry.find bug_id with
    | None -> Error (Printf.sprintf "unknown bug id %s" bug_id)
    | Some bug ->
      let b = bug.Corpus.Bug.build () in
      Lir.Irmod.layout b.Corpus.Bug.m;
      Hashtbl.add t.modules bug_id b;
      Ok b)

let note_endpoint b endpoint =
  if not (List.mem endpoint b.endpoints) then
    b.endpoints <- endpoint :: b.endpoints

let note_arrival b arrival =
  if b.failing_seen + b.success_seen <= arrival_cap then
    b.arrivals_rev <- arrival :: b.arrivals_rev

let keep_success t b endpoint (r : Report.success_report) nbytes prov arrival =
  b.success_seen <- b.success_seen + 1;
  b.wire_bytes <- b.wire_bytes + nbytes;
  note_endpoint b endpoint;
  note_arrival b arrival;
  if b.success_seen <= prov_cap then
    b.success_prov_rev <- prov :: b.success_prov_rev;
  if success_kept b < t.policy.max_success then begin
    b.successful_rev <- r :: b.successful_rev;
    Obs.Scope.count "fleet/success_kept" 1
  end
  else Obs.Scope.count "fleet/success_dropped" 1

(* A success report belongs to the bucket whose watchpoint set its
   trigger pc came from.  When several signatures of one bug share a
   watch pc, first (oldest) bucket wins — matching the driver, which
   arms one watchpoint set per failure location. *)
let route_success t bug_id endpoint (r : Report.success_report) nbytes prov
    arrival =
  let candidates =
    List.filter
      (fun b ->
        String.equal b.signature.Signature.bug_id bug_id
        && List.mem r.Report.trigger_pc b.watch_pcs)
      (List.rev t.bucket_list)
  in
  match candidates with
  | b :: _ ->
    keep_success t b endpoint r nbytes prov arrival;
    true
  | [] -> false

(* Held successes are capped per bug: a fleet that only ever reports
   successes for some bug id (its failure never arrives, or the trigger
   pc matches no bucket) must not grow the pending pool without bound.
   Newest reports win — on overflow the oldest held entry is evicted,
   mirroring a ring buffer at the endpoint. *)
let hold_success t bug_id endpoint r nbytes prov arrival =
  let held = Option.value ~default:[] (Hashtbl.find_opt t.pending bug_id) in
  let held =
    {
      p_endpoint = endpoint;
      p_report = r;
      p_bytes = nbytes;
      p_prov = prov;
      p_arrival = arrival;
    }
    :: held
  in
  let held =
    let n = List.length held in
    if n <= t.policy.max_pending then held
    else begin
      let evicted = n - t.policy.max_pending in
      t.pending_dropped <- t.pending_dropped + evicted;
      Obs.Scope.count "fleet/pending_dropped" evicted;
      Obs.Log.info "fleet/pending_evict"
        ~fields:
          [ ("bug", Obs.Log.Str bug_id); ("evicted", Obs.Log.Int evicted) ];
      List.filteri (fun i _ -> i < t.policy.max_pending) held
    end
  in
  if held = [] then Hashtbl.remove t.pending bug_id
  else Hashtbl.replace t.pending bug_id held

(* A new bucket may claim successes that arrived before its first
   failing report.  Held lists are newest first; route in arrival
   order so kept-first-K sampling sees the fleet's true order. *)
let drain_pending t bug_id =
  match Hashtbl.find_opt t.pending bug_id with
  | None -> ()
  | Some held ->
    let leftover =
      List.filter
        (fun p ->
          not
            (route_success t bug_id p.p_endpoint p.p_report p.p_bytes p.p_prov
               p.p_arrival))
        (List.rev held)
    in
    if leftover = [] then Hashtbl.remove t.pending bug_id
    else Hashtbl.replace t.pending bug_id (List.rev leftover)

let ingest_failing t ~bug_id ~endpoint ~config ~nbytes ~prov ~arrival
    (r : Report.failing_report) =
  match built_for t bug_id with
  | Error _ as e -> e
  | Ok built -> (
    let m = built.Corpus.Bug.m in
    match Signature.of_failing m ~config ~bug_id r with
    | Error _ as e -> e
    | Ok signature ->
      let key = Signature.key signature in
      let b =
        match Hashtbl.find_opt t.by_key key with
        | Some b -> b
        | None ->
          let b =
            {
              signature;
              config;
              watch_pcs = Corpus.Runner.watch_pcs_for m r;
              endpoints = [];
              failing_rev = [];
              successful_rev = [];
              failing_seen = 0;
              success_seen = 0;
              wire_bytes = 0;
              failing_prov_rev = [];
              success_prov_rev = [];
              arrivals_rev = [];
            }
          in
          Hashtbl.add t.by_key key b;
          t.bucket_list <- b :: t.bucket_list;
          Obs.Scope.count "fleet/buckets" 1;
          Obs.Log.info "fleet/bucket_new"
            ~fields:
              [
                ("bug", Obs.Log.Str bug_id);
                ("signature", Obs.Log.Str (Signature.to_string signature));
              ];
          drain_pending t bug_id;
          b
      in
      b.failing_seen <- b.failing_seen + 1;
      b.wire_bytes <- b.wire_bytes + nbytes;
      note_endpoint b endpoint;
      note_arrival b arrival;
      if b.failing_seen <= prov_cap then
        b.failing_prov_rev <- prov :: b.failing_prov_rev;
      if failing_kept b < t.policy.max_failing then begin
        b.failing_rev <- r :: b.failing_rev;
        Obs.Scope.count "fleet/failing_kept" 1
      end
      else Obs.Scope.count "fleet/failing_dropped" 1;
      Ok ())

let ingest t packet =
  Obs.Scope.timed "fleet/ingest_ns" @@ fun () ->
  t.received <- t.received + 1;
  let nbytes = Bytes.length packet in
  t.total_wire_bytes <- t.total_wire_bytes + nbytes;
  Obs.Scope.count "fleet/reports_received" 1;
  Obs.Scope.count "fleet/wire_bytes" nbytes;
  let reject msg =
    t.decode_errors <- t.decode_errors + 1;
    Obs.Scope.count "fleet/decode_errors" 1;
    Obs.Log.warn "fleet/ingest_reject"
      ~fields:
        [ ("reason", Obs.Log.Str msg); ("bytes", Obs.Log.Int nbytes) ];
    Error msg
  in
  let arrival = Obs.Span.wall_clock_ns () in
  match Wire.decode packet with
  | Error msg -> reject msg
  | Ok env -> (
    let prov = prov_sample_of env in
    match env.Wire.payload with
    | Wire.Failing r -> (
      t.failing_received <- t.failing_received + 1;
      match
        ingest_failing t ~bug_id:env.Wire.bug_id ~endpoint:env.Wire.endpoint
          ~config:env.Wire.config ~nbytes ~prov ~arrival r
      with
      | Ok () -> Ok ()
      | Error msg -> reject msg)
    | Wire.Success r -> (
      t.success_received <- t.success_received + 1;
      match built_for t env.Wire.bug_id with
      | Error msg -> reject msg
      | Ok _ ->
        if
          not
            (route_success t env.Wire.bug_id env.Wire.endpoint r nbytes prov
               arrival)
        then
          hold_success t env.Wire.bug_id env.Wire.endpoint r nbytes prov
            arrival;
        Ok ()))

let buckets t = List.rev t.bucket_list

(* --- Lumos-style provenance mining -------------------------------------- *)

type qualifier = { q_desc : string; q_fail_frac : float; q_succ_frac : float }

let qualifier_to_string q =
  Printf.sprintf "%s (%.0f%% of failing vs %.0f%% of successful)" q.q_desc
    (100.0 *. q.q_fail_frac)
    (100.0 *. q.q_succ_frac)

(* A feature discriminates when it covers most failing reports and few
   successful ones.  Both sides need at least [min_side] samples — with a
   single failing report every feature trivially covers 100% of the
   failing class and every qualifier would be noise. *)
let min_side = 2

let strong = 0.75

let weak = 0.25

let qualifiers b =
  let fp = List.rev b.failing_prov_rev in
  let sp = List.rev b.success_prov_rev in
  let nf = List.length fp and ns = List.length sp in
  if nf < min_side || ns < min_side then []
  else begin
    let fnf = float_of_int nf and fns = float_of_int ns in
    let out = ref [] in
    (* Categorical features: exact-value coverage. *)
    let candidates =
      List.sort_uniq compare (List.concat_map (fun p -> p.s_feats) fp)
    in
    List.iter
      (fun (k, v) ->
        let covers p = List.mem (k, v) p.s_feats in
        let ff =
          float_of_int (List.length (List.filter covers fp)) /. fnf
        in
        let sf =
          float_of_int (List.length (List.filter covers sp)) /. fns
        in
        if ff >= strong && sf <= weak then
          out :=
            { q_desc = k ^ "=" ^ v; q_fail_frac = ff; q_succ_frac = sf }
            :: !out)
      candidates;
    (* Numeric features: best threshold split per key.  The failing class
       of a bucket systematically differs from the successful one on
       e.g. sync_ops (a crashed run stopped synchronizing early), which
       exact matching cannot see. *)
    let num_keys =
      List.sort_uniq compare
        (List.concat_map (fun p -> List.map fst p.s_nums) fp)
    in
    List.iter
      (fun k ->
        let vals ps =
          List.filter_map (fun p -> List.assoc_opt k p.s_nums) ps
        in
        let fv = vals fp and sv = vals sp in
        if List.length fv >= min_side && List.length sv >= min_side then begin
          let ffv = float_of_int (List.length fv) in
          let fsv = float_of_int (List.length sv) in
          let thresholds = List.sort_uniq compare (fv @ sv) in
          let best = ref None in
          let consider q =
            let gap = q.q_fail_frac -. q.q_succ_frac in
            if q.q_fail_frac >= strong && q.q_succ_frac <= weak then
              match !best with
              | Some b when b.q_fail_frac -. b.q_succ_frac >= gap -> ()
              | _ -> best := Some q
          in
          List.iter
            (fun t ->
              let below l =
                float_of_int (List.length (List.filter (fun v -> v < t) l))
              in
              let ff = below fv /. ffv and sf = below sv /. fsv in
              consider
                {
                  q_desc = Printf.sprintf "%s<%d" k t;
                  q_fail_frac = ff;
                  q_succ_frac = sf;
                };
              consider
                {
                  q_desc = Printf.sprintf "%s>=%d" k t;
                  q_fail_frac = 1.0 -. ff;
                  q_succ_frac = 1.0 -. sf;
                })
            thresholds;
          match !best with Some q -> out := q :: !out | None -> ()
        end)
      num_keys;
    let ranked =
      List.sort
        (fun a b ->
          compare
            (b.q_fail_frac -. b.q_succ_frac, a.q_desc)
            (a.q_fail_frac -. a.q_succ_frac, b.q_desc))
        !out
    in
    List.filteri (fun i _ -> i < 3) ranked
  end

let pending_pools t =
  Hashtbl.fold
    (fun bug_id held acc -> (bug_id, List.length held) :: acc)
    t.pending []

let totals t =
  let unrouted =
    Hashtbl.fold (fun _ held acc -> acc + List.length held) t.pending 0
  in
  {
    received = t.received;
    wire_bytes = t.total_wire_bytes;
    decode_errors = t.decode_errors;
    failing_received = t.failing_received;
    success_received = t.success_received;
    unrouted;
    pending_dropped = t.pending_dropped;
  }

let built t b =
  match built_for t b.signature.Signature.bug_id with
  | Ok built -> built
  | Error msg ->
    (* A bucket only exists because [built_for] succeeded for it. *)
    invalid_arg ("Collector.built: " ^ msg)

type verdict = {
  top_pattern : string option;
  top_describe : string option;
  f1 : float;
  root_cause_match : bool;
  ordering_accuracy : float;
}

let verdict t b top =
  match (top : Core.Statistics.scored option) with
  | None ->
    {
      top_pattern = None;
      top_describe = None;
      f1 = 0.0;
      root_cause_match = false;
      ordering_accuracy = 0.0;
    }
  | Some { Core.Statistics.pattern = p; f1; _ } ->
    let built = built t b in
    let ground_truth = built.Corpus.Bug.ground_truth in
    {
      top_pattern = Some (Core.Patterns.id p);
      top_describe = Some (Core.Patterns.describe built.Corpus.Bug.m p);
      f1;
      root_cause_match =
        Core.Accuracy.root_cause_match ~diagnosed:p ~ground_truth;
      ordering_accuracy =
        Core.Accuracy.ordering_accuracy ~diagnosed:p ~ground_truth;
    }

let diagnose t b =
  Obs.Scope.timed "fleet/diagnosis_ns" @@ fun () ->
  let m = (built t b).Corpus.Bug.m in
  Snorlax_core.Diagnosis.diagnose m ~config:b.config ~failing:(failing b)
    ~successful:(successful b)
