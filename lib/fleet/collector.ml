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

type bucket = {
  signature : Signature.t;
  config : Pt.Config.t;
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
}

let failing b = List.rev b.failing_rev
let successful b = List.rev b.successful_rev
let failing_kept b = List.length b.failing_rev
let success_kept b = List.length b.successful_rev
let failing_dropped b = b.failing_seen - failing_kept b
let success_dropped b = b.success_seen - success_kept b

type totals = {
  received : int;
  wire_bytes : int;
  decode_errors : int;
  failing_received : int;
  success_received : int;
  unrouted : int;
  pending_dropped : int;
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
  routes : (bucket, bucket -> unit) Routes.t;
      (* a held success is its own delivery to the bucket that claims it *)
  mutable received : int;
  mutable total_wire_bytes : int;
  mutable decode_errors : int;
  mutable failing_received : int;
  mutable success_received : int;
}

let create ?(policy = default_policy) ?(modules = Hashtbl.create 8) () =
  {
    policy;
    modules;
    bucket_list = [];
    routes =
      Routes.create ~max_pending:policy.max_pending ~name:"fleet/pending";
    received = 0;
    total_wire_bytes = 0;
    decode_errors = 0;
    failing_received = 0;
    success_received = 0;
  }

let policy t = t.policy

(* What every report routed to [b] adds, once its seen count is bumped. *)
let note (b : bucket) endpoint nbytes =
  b.wire_bytes <- b.wire_bytes + nbytes;
  if not (List.mem endpoint b.endpoints) then
    b.endpoints <- endpoint :: b.endpoints

let keep_success t b endpoint (r : Report.success_report) nbytes prov =
  b.success_seen <- b.success_seen + 1;
  note b endpoint nbytes;
  if b.success_seen <= prov_cap then
    b.success_prov_rev <- prov :: b.success_prov_rev;
  if success_kept b < t.policy.max_success then begin
    b.successful_rev <- r :: b.successful_rev;
    Obs.Scope.count "fleet/success_kept" 1
  end
  else Obs.Scope.count "fleet/success_dropped" 1

let new_bucket t ~bug_id ~config (f : Routes.failing) =
  let b =
    {
      signature = f.Routes.signature;
      config;
      endpoints = [];
      failing_rev = [];
      successful_rev = [];
      failing_seen = 0;
      success_seen = 0;
      wire_bytes = 0;
      failing_prov_rev = [];
      success_prov_rev = [];
    }
  in
  t.bucket_list <- b :: t.bucket_list;
  Obs.Scope.count "fleet/buckets" 1;
  Obs.Log.info "fleet/bucket_new"
    ~fields:
      [
        ("bug", Obs.Log.Str bug_id);
        ("signature", Obs.Log.Str (Signature.to_string f.Routes.signature));
      ];
  b

let keep_failing t b endpoint (r : Report.failing_report) nbytes prov =
  b.failing_seen <- b.failing_seen + 1;
  note b endpoint nbytes;
  if b.failing_seen <= prov_cap then
    b.failing_prov_rev <- prov :: b.failing_prov_rev;
  if failing_kept b < t.policy.max_failing then begin
    b.failing_rev <- r :: b.failing_rev;
    Obs.Scope.count "fleet/failing_kept" 1
  end
  else Obs.Scope.count "fleet/failing_dropped" 1

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
  match Wire.decode packet with
  | Error msg -> reject msg
  | Ok env -> (
    let bug_id = env.Wire.bug_id and endpoint = env.Wire.endpoint in
    let prov = prov_sample_of env in
    match env.Wire.payload with
    | Wire.Failing r -> (
      t.failing_received <- t.failing_received + 1;
      let config = env.Wire.config in
      match Routes.of_failing t.modules ~config ~bug_id r with
      | Error msg -> reject msg
      | Ok f ->
        let b, released =
          Routes.claim t.routes f ~fresh:(fun () ->
              new_bucket t ~bug_id ~config f)
        in
        (* Successes that beat the bucket's first failing report. *)
        List.iter (fun (b, deliver) -> deliver b) released;
        keep_failing t b endpoint r nbytes prov;
        Ok ())
    | Wire.Success r -> (
      t.success_received <- t.success_received + 1;
      match Routes.server_build t.modules bug_id with
      | Error msg -> reject msg
      | Ok _ ->
        let deliver b = keep_success t b endpoint r nbytes prov in
        Option.iter deliver
          (Routes.route t.routes ~bug_id ~pc:r.Report.trigger_pc deliver);
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

let pending_pools t = Routes.pools t.routes

let totals t =
  {
    received = t.received;
    wire_bytes = t.total_wire_bytes;
    decode_errors = t.decode_errors;
    failing_received = t.failing_received;
    success_received = t.success_received;
    unrouted = Routes.held t.routes;
    pending_dropped = Routes.dropped t.routes;
  }

(* A bucket exists only once [Routes.server_build] has stored its build. *)
let built t b = Hashtbl.find t.modules b.signature.Signature.bug_id

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
