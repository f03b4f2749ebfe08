(* Property tests over randomly generated programs: a seeded generator
   builds arbitrary (but verifiable) multithreaded LIR modules, and we
   check end-to-end invariants — the verifier accepts them, execution is
   deterministic per seed, and the PT decode of every thread is a timed
   run of what the interpreter actually executed. *)

module B = Lir.Builder
module V = Lir.Value
module T = Lir.Ty
module Prng = Snorlax_util.Prng

(* --- random program generator ------------------------------------------- *)

(* Straight-line/body statements use a small stack of i64 values rooted in
   allocas and two shared globals; control flow comes from bounded loops
   and conditionals; cross-thread traffic from lock-protected updates. *)
let gen_body prng b ~depth ~fuel =
  let slot = B.alloca b ~name:"slot" T.I64 in
  B.store b ~value:(V.i64 (Prng.int prng ~bound:100)) ~ptr:slot;
  let rec stmt ~depth ~fuel =
    if !fuel > 0 then begin
      decr fuel;
      match Prng.int prng ~bound:(if depth > 2 then 6 else 9) with
      | 0 ->
        let v = B.load b slot in
        B.store b ~value:(B.add b v (V.i64 (Prng.int prng ~bound:10))) ~ptr:slot
      | 1 ->
        let v = B.load b (V.Global "shared_a") in
        B.store b ~value:(B.binop b Lir.Instr.Xor v (V.i64 3)) ~ptr:slot;
        ignore v
      | 2 -> B.work b ~ns:(10 + Prng.int prng ~bound:500)
      | 3 ->
        B.mutex_lock b (V.Global "lock");
        let v = B.load b (V.Global "shared_b") in
        B.store b ~value:(B.add b v (V.i64 1)) ~ptr:(V.Global "shared_b");
        B.mutex_unlock b (V.Global "lock")
      | 4 ->
        let v = B.load b slot in
        B.call_void b Lir.Intrinsics.print_i64 [ v ]
      | 5 ->
        let r = B.rand b ~bound:7 in
        B.store b ~value:r ~ptr:slot
      | 6 ->
        (* conditional *)
        let v = B.load b slot in
        let c = B.icmp b Lir.Instr.Slt v (V.i64 (Prng.int prng ~bound:100)) in
        B.if_ b c
          ~then_:(fun () -> stmt ~depth:(depth + 1) ~fuel)
          ~else_:(fun () -> stmt ~depth:(depth + 1) ~fuel)
      | 7 ->
        (* bounded loop *)
        let n = 1 + Prng.int prng ~bound:5 in
        B.for_ b ~from:0 ~below:(V.i64 n) (fun _ ->
            stmt ~depth:(depth + 1) ~fuel)
      | _ ->
        (* call a helper if one exists *)
        if Prng.bool prng then
          ignore (B.call b ~ret:T.I64 "helper" [ B.load b slot ])
        else stmt ~depth:(depth + 1) ~fuel
    end
  in
  let n = 2 + Prng.int prng ~bound:6 in
  for _ = 1 to n do
    stmt ~depth ~fuel
  done

let gen_module seed =
  let prng = Prng.create ~seed in
  let m = Lir.Irmod.create (Printf.sprintf "fuzz%d" seed) in
  ignore (Lir.Irmod.declare_struct m "Mutex" [ T.I64 ]);
  Lir.Irmod.declare_global m "lock" (T.Struct "Mutex");
  Lir.Irmod.declare_global m "shared_a" T.I64;
  Lir.Irmod.declare_global m "shared_b" T.I64;
  B.define m "helper" ~params:[ ("x", T.I64) ] ~ret:T.I64 (fun b ->
      let x = B.param b 0 in
      let c = B.icmp b Lir.Instr.Sgt x (V.i64 50) in
      let big = B.fresh_label b "big" in
      let small = B.fresh_label b "small" in
      B.cond_br b c big small;
      B.start_block b big;
      B.ret b (B.sub b x (V.i64 50));
      B.start_block b small;
      B.ret b (B.add b x (V.i64 1)));
  let nworkers = 1 + Prng.int prng ~bound:3 in
  for w = 0 to nworkers - 1 do
    B.define m
      (Printf.sprintf "worker%d" w)
      ~params:[ ("arg", T.I64) ] ~ret:T.Void
      (fun b ->
        gen_body prng b ~depth:0 ~fuel:(ref (8 + Prng.int prng ~bound:16));
        B.ret_void b)
  done;
  B.define m "main" ~params:[] ~ret:T.Void (fun b ->
      B.call_void b Lir.Intrinsics.mutex_init [ V.Global "lock" ];
      let tids =
        List.init nworkers (fun w ->
            B.spawn b (Printf.sprintf "worker%d" w) (V.i64 w))
      in
      List.iter (fun t -> B.join b t) tids;
      B.ret_void b);
  m

(* --- properties ---------------------------------------------------------- *)

let prop_generated_verify =
  QCheck.Test.make ~name:"fuzz: generated modules verify" ~count:60
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let m = gen_module seed in
      Lir.Verify.check m = [])

let prop_generated_complete =
  QCheck.Test.make ~name:"fuzz: generated modules run to completion" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let m = gen_module seed in
      let r = Sim.Interp.run m ~entry:"main" in
      r.Sim.Interp.outcome = Sim.Interp.Completed)

let prop_run_deterministic =
  QCheck.Test.make ~name:"fuzz: same seed, same execution" ~count:25
    QCheck.(pair (int_range 1 5_000) (int_range 1 50))
    (fun (mseed, rseed) ->
      let run () =
        let m = gen_module mseed in
        let config = { Sim.Interp.default_config with seed = rseed } in
        let r = Sim.Interp.run ~config m ~entry:"main" in
        (r.Sim.Interp.output, r.Sim.Interp.steps, r.Sim.Interp.final_time_ns)
      in
      run () = run ())

(* Decoder fidelity against the execution oracle, over random programs:
   every thread's decode must be a run of the path it executed, with
   every executed time inside its step's interval ([Oracle.Executed]).
   The 64 B ring wraps on about a third of these threads, so those
   decodes start at a mid-stream PSB. *)
let small_ring =
  { Pt.Config.default with Pt.Config.buffer_size = 64; psb_period_bytes = 16 }

let decode_matches_execution ~config mseed rseed =
  let m = gen_module mseed in
  Lir.Irmod.layout m;
  let driver = Pt.Driver.create ~config () in
  let executed = Oracle.Executed.create () in
  let hooks =
    Sim.Hooks.combine (Pt.Driver.hooks driver) (Oracle.Executed.hooks executed)
  in
  let r =
    Sim.Interp.run
      ~config:{ Sim.Interp.default_config with seed = rseed; hooks }
      m ~entry:"main"
  in
  r.Sim.Interp.outcome = Sim.Interp.Completed
  && List.for_all
       (fun (tid, bytes) ->
         Oracle.Executed.check executed ~tid (Pt.Decoder.decode m ~config bytes)
         = Ok ())
       (Pt.Driver.snapshot_now driver ~at_time_ns:r.Sim.Interp.final_time_ns)
         .Pt.Driver.traces

let prop_decode_prefix =
  QCheck.Test.make
    ~name:"fuzz: decoded trace is a run of the execution (random programs)"
    ~count:30
    QCheck.(pair (int_range 1 5_000) (int_range 1 20))
    (fun (mseed, rseed) ->
      decode_matches_execution ~config:Pt.Config.default mseed rseed
      && decode_matches_execution ~config:small_ring mseed rseed)

(* Time-interval soundness on random programs, under each timing mode. *)
let prop_decode_time_bounds =
  QCheck.Test.make
    ~name:"fuzz: decoded intervals contain true execution times" ~count:15
    QCheck.(int_range 1 5_000)
    (fun mseed ->
      List.for_all
        (fun config -> decode_matches_execution ~config mseed 5)
        [
          Pt.Config.default;
          small_ring;
          {
            Pt.Config.default with
            Pt.Config.timing = Pt.Config.Mtc_only { mtc_period_ns = 4096 };
          };
        ])

(* The points-to analysis is sound on random programs in one useful
   sense: scope-restricting to the executed set never *adds* objects. *)
let prop_scope_restriction_shrinks =
  QCheck.Test.make ~name:"fuzz: scope restriction only shrinks points-to"
    ~count:15
    QCheck.(int_range 1 5_000)
    (fun mseed ->
      let m = gen_module mseed in
      Lir.Irmod.layout m;
      let full = Analysis.Pointsto.analyze_all m in
      let restricted = Analysis.Pointsto.analyze m ~scope:(fun iid -> iid mod 2 = 0) in
      let ok = ref true in
      Lir.Irmod.iter_instrs m (fun _ _ i ->
          if Lir.Instr.is_memory_access i then begin
            let o_full = Analysis.Pointsto.accessed_objects full i in
            let o_restr = Analysis.Pointsto.accessed_objects restricted i in
            if not (Analysis.Memobj.Set.subset o_restr o_full) then ok := false
          end);
      !ok)

let qtest = QCheck_alcotest.to_alcotest

let tests =
  [
    ( "fuzz",
      [
        qtest prop_generated_verify;
        qtest prop_generated_complete;
        qtest prop_run_deterministic;
        qtest prop_decode_prefix;
        qtest prop_decode_time_bounds;
        qtest prop_scope_restriction_shrinks;
      ] );
  ]
