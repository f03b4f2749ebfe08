(* Aggregated test entry point: `dune runtest` runs everything. *)

let () =
  Alcotest.run "snorlax"
    (Test_util.tests @ Test_obs.tests @ Test_ir.tests @ Test_sim.tests
   @ Test_memory.tests @ Test_pt.tests
   @ Test_analysis.tests @ Test_hb.tests @ Test_core.tests @ Test_gist.tests
   @ Test_corpus.tests @ Test_replay.tests @ Test_experiments.tests @ Test_fuzz.tests
   @ Test_fleet.tests @ Test_shipment.tests @ Test_stream.tests @ Test_chaos.tests
   @ Test_oracle.tests @ Test_fix.tests @ Test_integration.tests)
