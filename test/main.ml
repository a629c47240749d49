let () =
  Alcotest.run "deflection"
    [
      ("util", Suite_util.suite);
      ("crypto", Suite_crypto.suite);
      ("isa", Suite_isa.suite);
      ("enclave", Suite_enclave.suite);
      ("annot", Suite_annot.suite);
      ("policy", Suite_policy.suite);
      ("runtime", Suite_runtime.suite);
      ("compiler", Suite_compiler.suite);
      ("loader", Suite_loader.suite);
      ("opt", Suite_opt.suite);
      ("verifier", Suite_verifier.suite);
      ("attestation", Suite_attestation.suite);
      ("core", Suite_core.suite);
      ("protocol", Suite_protocol.suite);
      ("attacks", Suite_attacks.suite);
      ("oram", Suite_oram.suite);
      ("workloads", Suite_workloads.suite);
      ("runtimes", Suite_runtimes.suite);
      ("telemetry", Suite_telemetry.suite);
      ("forensics", Suite_forensics.suite);
      ("chaos", Suite_chaos.suite);
      ("fuzz", Suite_fuzz.suite);
      ("witness", Suite_witness.suite);
      ("tier", Suite_tier.suite);
      ("gateway", Suite_gateway.suite);
      ("audit", Suite_audit.suite);
      ("server", Suite_server.suite);
      ("sealed-log", Suite_sealed_log.suite);
    ]
