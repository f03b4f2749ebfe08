module Wire = Fleet.Wire
module Routes = Fleet.Routes
module Report = Snorlax_core.Report

type t = {
  shards : Shard.t array;
  offer : int -> arrival:float -> bytes -> unit;
  modules : (string, Corpus.Bug.built) Hashtbl.t;
  routes : (int, int -> unit) Routes.t;
      (* held successes are their own offer to the shard that claims them *)
  mutable malformed : int;
  mutable received : int;
}

let create ?offer shards modules =
  if Array.length shards = 0 then invalid_arg "Router.create: no shards";
  let policy = Fleet.Collector.policy (Shard.collector shards.(0)) in
  {
    shards;
    offer =
      (match offer with
      | Some f -> f
      | None -> fun idx ~arrival packet -> Shard.offer shards.(idx) ~arrival packet);
    modules;
    routes =
      Routes.create ~max_pending:policy.Fleet.Collector.max_pending
        ~name:"stream/tracker_pending";
    malformed = 0;
    received = 0;
  }

let received t = t.received
let malformed t = t.malformed
let pending_dropped t = Routes.dropped t.routes
let pending_held t = Routes.held t.routes

let shard_of_key t key = Hashtbl.hash key mod Array.length t.shards

let route t packet =
  t.received <- t.received + 1;
  Obs.Scope.count "stream/tracker_received" 1;
  let arrival = Obs.Span.wall_clock_ns () in
  let offer idx = t.offer idx ~arrival packet in
  match Wire.decode packet with
  | Error _ ->
    (* Garbage still flows to a shard — the collector is the single
       source of truth for decode-error accounting. *)
    t.malformed <- t.malformed + 1;
    Obs.Scope.count "stream/tracker_malformed" 1;
    offer (Hashtbl.hash packet mod Array.length t.shards)
  | Ok env -> (
    let bug_id = env.Wire.bug_id in
    match env.Wire.payload with
    | Wire.Failing r -> (
      match Routes.of_failing t.modules ~config:env.Wire.config ~bug_id r with
      | Error _ ->
        (* Unknown bug or corrupt report: forward anyway so the owning
           shard's collector counts it — the tracker never hides damage. *)
        offer (shard_of_key t bug_id)
      | Ok f ->
        let idx, released =
          Routes.claim t.routes f ~fresh:(fun () ->
              Obs.Scope.count "stream/routes" 1;
              shard_of_key t f.Routes.key)
        in
        (* Released successes go first, so the shard's FIFO queue keeps
           the fleet's arrival order. *)
        List.iter (fun (idx, offer_held) -> offer_held idx) released;
        offer idx)
    | Wire.Success r -> (
      match Routes.server_build t.modules bug_id with
      | Error _ ->
        (* No route can ever appear for an unknown bug: holding it would
           swallow it. *)
        offer (shard_of_key t bug_id)
      | Ok _ ->
        Option.iter offer
          (Routes.route t.routes ~bug_id ~pc:r.Report.trigger_pc offer)))
