let () =
  Alcotest.run "cecproof"
    (Test_support.suites @ Test_aig.suites @ Test_cnf.suites @ Test_sat.suites
   @ Test_proof.suites @ Test_bdd.suites @ Test_synth.suites @ Test_misc.suites @ Test_seq.suites @ Test_edge.suites @ Test_circuits.suites @ Test_core.suites
   @ Test_service.suites @ Test_fault.suites @ Test_fleet.suites @ Test_obs.suites @ Test_sweep_diff.suites
   @ Test_check_diff.suites @ Test_pins.suites @ Test_qcheck.suites)
