let () =
  Alcotest.run "tpbs"
    [ Test_serial.suite; Test_typesys.suite; Test_obvent.suite;
      Test_filter.suite; Test_sim.suite; Test_trace.suite; Test_group.suite;
      Test_stack.suite; Test_rmi.suite;
      Test_core.suite; Test_routing.suite; Test_baselines.suite;
      Test_psc.suite; Test_analysis.suite; Test_store.suite;
      Test_transport.suite; Test_pool.suite; Test_alternatives.suite;
      Test_cover.suite; Test_broker_core.suite; Test_factored.suite;
      Test_dispatch.suite ]
