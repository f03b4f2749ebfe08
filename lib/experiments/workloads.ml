module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty

type spec = {
  name : string;
  requests : int;
  io_gap_ns : int;
  inner_iters : int;
  lock_every : int;
}

(* Profiles loosely follow each system's character: pbzip2 is almost pure
   compute (highest branch density per wall-clock second); servers spend
   most time waiting for clients; aget is network-bound. *)
let specs =
  [
    { name = "mysql"; requests = 60; io_gap_ns = 22_000; inner_iters = 900; lock_every = 2 };
    { name = "httpd"; requests = 70; io_gap_ns = 26_000; inner_iters = 700; lock_every = 3 };
    { name = "memcached"; requests = 90; io_gap_ns = 9_000; inner_iters = 500; lock_every = 1 };
    { name = "sqlite"; requests = 60; io_gap_ns = 14_000; inner_iters = 1_000; lock_every = 2 };
    { name = "transmission"; requests = 50; io_gap_ns = 30_000; inner_iters = 600; lock_every = 4 };
    { name = "pbzip2"; requests = 40; io_gap_ns = 2_500; inner_iters = 2_600; lock_every = 5 };
    { name = "aget"; requests = 60; io_gap_ns = 24_000; inner_iters = 450; lock_every = 3 };
  ]

let find name = List.find (fun s -> String.equal s.name name) specs

let build spec ~threads =
  let m = Lir.Irmod.create (spec.name ^ "-workload") in
  ignore (Corpus.Dsl.mutex_struct m);
  Lir.Irmod.declare_global m "stats_lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "total_served" T.I64;
  let worker_access_iids = ref [] in
  let note b = worker_access_iids := B.last_iid b :: !worker_access_iids in
  B.define m "worker" ~params:[ ("arg", T.I64) ] ~ret:T.Void (fun b ->
      let acc = B.alloca b ~name:"acc" T.I64 in
      B.store b ~value:(V.i64 0) ~ptr:acc;
      note b;
      B.for_ b ~from:0 ~below:(V.i64 spec.requests) (fun r ->
          B.io_delay b ~ns:spec.io_gap_ns;
          (* Branch-dense request processing: checksum-like inner loop. *)
          B.for_ b ~from:0 ~below:(V.i64 spec.inner_iters) (fun i ->
              let v = B.load b ~name:"v" acc in
              note b;
              let v = B.add b v i in
              let v = B.binop b Lir.Instr.Xor v (V.i64 0x5bd1) in
              B.store b ~value:v ~ptr:acc;
              note b);
          (* Periodic shared-state update under the stats lock. *)
          let due =
            B.icmp b Lir.Instr.Eq
              (B.binop b Lir.Instr.Srem r (V.i64 spec.lock_every))
              (V.i64 0)
          in
          B.if_ b due
            ~then_:(fun () ->
              B.mutex_lock b (V.Global "stats_lock");
              let t = B.load b ~name:"t" (V.Global "total_served") in
              note b;
              B.store b ~value:(B.add b t (V.i64 1))
                ~ptr:(V.Global "total_served");
              note b;
              B.mutex_unlock b (V.Global "stats_lock"))
            ~else_:(fun () -> ()));
      B.ret_void b);
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "stats_lock" ];
      let slots = B.alloca b ~name:"tids" (T.Array (T.I64, threads)) in
      B.for_ b ~from:0 ~below:(V.i64 threads) (fun i ->
          let tid = B.spawn b "worker" i in
          let slot = B.index b slots i in
          B.store b ~value:tid ~ptr:slot);
      B.for_ b ~from:0 ~below:(V.i64 threads) (fun i ->
          let slot = B.index b slots i in
          let tid = B.load b ~name:"tid" slot in
          B.join b tid);
      B.ret_void b);
  Lir.Verify.check_exn m;
  let accesses = !worker_access_iids in
  (m, fun iid -> List.mem iid accesses)

let run_time m ~seed ~hooks =
  let config = { Sim.Interp.default_config with seed; hooks } in
  let r = Sim.Interp.run ~config m ~entry:"main" in
  (match r.Sim.Interp.outcome with
  | Sim.Interp.Completed -> ()
  | Sim.Interp.Failed _ | Sim.Interp.Stuck | Sim.Interp.Fuel_exhausted ->
    invalid_arg "Workloads.run_time: workload did not complete");
  r.Sim.Interp.final_time_ns

let run_overhead spec ~threads ~seed ~tracer_config ~gist_costs =
  let m, monitored = build spec ~threads in
  Lir.Irmod.layout m;
  let base = run_time m ~seed ~hooks:Sim.Hooks.none in
  let hooks =
    match tracer_config, gist_costs with
    | Some config, _ ->
      let tracer = Pt.Tracer.create ~config in
      {
        Sim.Hooks.none with
        on_control =
          Some (fun ~time e -> Pt.Tracer.on_control tracer ~time e);
      }
    | None, Some costs ->
      Gist.instrument_hooks ~monitored ~threads ~costs
    | None, None -> Sim.Hooks.none
  in
  let monitored_time = run_time m ~seed ~hooks in
  (monitored_time -. base) /. base
