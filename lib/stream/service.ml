module Pool = Snorlax_util.Pool

type t = {
  shards : Shard.t array;
  latency : Obs.Metrics.histogram array;
  pool : Pool.t;  (* one job = inline: batches run on the caller *)
  domains : int;
}

let create ~shards ~latency ~domains =
  let n = Array.length shards in
  if Array.length latency <> n then
    invalid_arg "Service.create: latency/shards length mismatch";
  let domains = if domains <= 1 then 0 else Pool.lanes ~jobs:domains n in
  { shards; latency; pool = Pool.create ~jobs:domains; domains }

let domains t = t.domains

let offer t idx ~arrival packet = Shard.offer t.shards.(idx) ~arrival packet

(* One pool batch per call: each lane services one shard, and the batch
   barrier is the edge that publishes every shard's state back to the
   caller. *)
let service_all t ~budget =
  ignore
    (Obs.Scope.map_lanes t.pool
       (fun i s -> Shard.service s ~budget t.latency.(i))
       t.shards)

let stop t = Pool.shutdown t.pool
