module Report = Snorlax_core.Report
module Prng = Snorlax_util.Prng

type baseline = {
  bug : Corpus.Bug.t;
  origin : int;
  config : Pt.Config.t;
  runs : int;
  failing : (Report.failing_report * int * Corpus.Runner.sync_profile) list;
  success : (Report.success_report * int * Corpus.Runner.sync_profile) list;
}

(* Runner.collect's default retry budget is 5000 seeds; keep endpoint
   seed ranges disjoint with room to spare. *)
let seed_stride = 10_000

let reproduce ~config ~endpoint bug =
  let zip reports seeds syncs =
    List.map2 (fun r (seed, sync) -> (r, seed, sync)) reports
      (List.combine seeds syncs)
  in
  Corpus.Runner.collect bug ~pt_config:config
    ~seed_base:(1 + (endpoint * seed_stride))
    ()
  |> Result.map (fun (c : Corpus.Runner.collected) ->
         {
           bug;
           origin = endpoint;
           config;
           runs = c.runs_needed;
           failing = zip c.failing c.failing_seeds c.failing_sync;
           success = zip c.successful c.success_seeds c.success_sync;
         })

type kind = F | S

type damage = {
  on_failing : Report.failing_report -> Report.failing_report;
  on_success : Report.success_report -> Report.success_report;
}

let no_damage = { on_failing = Fun.id; on_success = Fun.id }

let ship ~endpoint ~incident ~damage b =
  let shift = ((endpoint - b.origin) * seed_stride) + incident in
  let encode kind seed (sync : Corpus.Runner.sync_profile) payload =
    ( kind,
      Wire.encode
        {
          Wire.endpoint;
          seed = seed + shift;
          bug_id = b.bug.Corpus.Bug.id;
          config = b.config;
          prov =
            Some
              {
                Wire.runs = b.runs;
                sync_ops = sync.Corpus.Runner.sync_ops;
                sync_digest = sync.Corpus.Runner.sync_digest;
              };
          payload;
        } )
  in
  (* Damage draws from the caller's generator, so its order is part of
     the shipped bytes: success reports first, then failing ones. *)
  let success =
    List.map
      (fun (r, seed, sync) ->
        encode S seed sync (Wire.Success (damage.on_success r)))
      b.success
  in
  let failing =
    List.map
      (fun (r, seed, sync) ->
        encode F seed sync (Wire.Failing (damage.on_failing r)))
      b.failing
  in
  failing @ success

let crash prng packets =
  match List.length packets with
  | 0 -> (packets, 0)
  | n ->
    let keep = Prng.int prng ~bound:n in
    (List.filteri (fun i _ -> i < keep) packets, n - keep)

let rec interleave_rounds acc queues =
  match List.filter (fun q -> not (List.is_empty q)) queues with
  | [] -> List.rev acc
  | queues ->
    interleave_rounds
      (List.fold_left (fun acc q -> List.hd q :: acc) acc queues)
      (List.map List.tl queues)

let interleave shipments = interleave_rounds [] shipments

type shipment = {
  endpoint : int;
  packets : bytes list;
  runs : int;
  reproduced : bool;
}

let run ~bug ~endpoint ?(config = Pt.Config.default) () =
  Obs.Scope.with_span
    ("fleet/endpoint-" ^ string_of_int endpoint)
    ~args:[ ("bug", Obs.Span.Str bug.Corpus.Bug.id) ]
  @@ fun () ->
  Obs.Scope.count "fleet/endpoints" 1;
  (* The endpoint's flight recorder: every log event during its runs
     lands in this ring too.  It is only materialized — replayed to the
     attached sinks — when a sim failure actually fired here. *)
  let recorder = Obs.Log.Recorder.create ~capacity:64 () in
  match
    Obs.Log.with_recorder recorder (fun () -> reproduce ~config ~endpoint bug)
  with
  | Error _ ->
    Obs.Scope.count "fleet/endpoints_quiet" 1;
    { endpoint; packets = []; runs = 0; reproduced = false }
  | Ok b ->
    Obs.Log.error "fleet/endpoint_failure"
      ~fields:
        [
          ("endpoint", Obs.Log.Int endpoint);
          ("bug", Obs.Log.Str bug.Corpus.Bug.id);
          ("failing", Obs.Log.Int (List.length b.failing));
          ("runs", Obs.Log.Int b.runs);
        ];
    Obs.Log.replay recorder;
    let packets =
      List.map snd (ship ~endpoint ~incident:0 ~damage:no_damage b)
    in
    List.iter
      (fun p -> Obs.Scope.count "fleet/endpoint_wire_bytes" (Bytes.length p))
      packets;
    { endpoint; packets; runs = b.runs; reproduced = true }
