(* deflectionc: command-line driver for the DEFLECTION pipeline.

     deflectionc compile service.mc -o service.dfl [--policies P1-P6]
     deflectionc verify service.dfl [--policies P1-P6]
     deflectionc disasm service.mc
     deflectionc run service.mc [--input FILE]... [--policies P1-P6]
                                [--forensics[=FILE]] [--profile[=FILE]]
                                [--prof-interval=N] [--prom[=FILE]]
     deflectionc report saved.json

   `run` executes the complete protocol: attestation, sealed delivery,
   in-enclave load/verify/rewrite, execution, and decryption of the
   sealed outputs as the data owner. `report` pretty-prints a saved
   deflection-forensics/1 or deflection-profile/1 JSON document. *)

open Cmdliner
module Policy = Deflection_policy.Policy
module Frontend = Deflection_compiler.Frontend
module Objfile = Deflection_isa.Objfile
module Verifier = Deflection_verifier.Verifier
module Interp = Deflection_runtime.Interp
module Telemetry = Deflection_telemetry.Telemetry
module Json = Deflection_telemetry.Json
module Hdr = Deflection_telemetry.Hdr
module Flight_recorder = Deflection_forensics.Flight_recorder
module Profiler = Deflection_forensics.Profiler
module Report = Deflection_forensics.Report
module Prometheus = Deflection_forensics.Prometheus
module Gateway = Deflection_gateway.Gateway
module Verdict_cache = Deflection_gateway.Verdict_cache
module Audit = Deflection_audit.Audit
module Attestation = Deflection_attestation.Attestation
module Server = Deflection_server.Server
module Persist = Deflection_server.Persist
module Chaos = Deflection_chaos.Chaos

(* ------------------------------------------------------------------ *)
(* build identity: one place lists every machine-readable schema this
   binary emits, consumed by `deflectionc version` and stamped as a
   deflection_build_info gauge into every Prometheus exposition. *)

let tool_version = "1.0"

let schema_versions =
  [
    ("bench", "1");
    ("chaos", "1");
    ("fuzz", "1");
    ("gateway", "1");
    ("server", "1");
    ("server-cache", "3");
    ("server-chaos", "1");
    ("audit", "2");
    ("forensics", "1");
    ("profile", "1");
  ]

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short=12 HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let build_info_gauge () =
  Prometheus.build_info
    ~labels:
      (("version", tool_version) :: ("git_rev", git_rev ())
      :: List.map (fun (s, v) -> ("schema_" ^ s, v)) schema_versions)
    ()

let policy_set_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "none" -> Ok Policy.Set.none
    | "p1" -> Ok Policy.Set.p1
    | "p1-p2" | "p1+p2" -> Ok Policy.Set.p1_p2
    | "p1-p5" -> Ok Policy.Set.p1_p5
    | "p1-p6" -> Ok Policy.Set.p1_p6
    | other ->
      (* comma-separated policy names *)
      let parts = String.split_on_char ',' other in
      let rec build acc = function
        | [] -> Ok acc
        | p :: rest ->
          (match Policy.of_name (String.uppercase_ascii p) with
          | Some pol -> build (Policy.Set.add pol acc) rest
          | None -> Error (`Msg (Printf.sprintf "unknown policy %S" p)))
      in
      build Policy.Set.none parts
  in
  let print fmt s = Format.pp_print_string fmt (Policy.Set.label s) in
  Arg.conv (parse, print)

let policies_arg =
  Arg.(
    value
    & opt policy_set_conv Policy.Set.p1_p6
    & info [ "p"; "policies" ] ~docv:"POLICIES"
        ~doc:"Policy set: none, P1, P1-P2, P1-P5, P1-P6, or a comma list (e.g. p1,p2,p5).")

let ssa_q_arg =
  Arg.(value & opt int 20 & info [ "ssa-q" ] ~docv:"Q" ~doc:"P6 marker inspection period.")

let verify_mode_conv =
  let parse s =
    match Verifier.mode_of_label (String.lowercase_ascii s) with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown verification mode %S (descent, witnessed)" s))
  in
  let print fmt m = Format.pp_print_string fmt (Verifier.mode_label m) in
  Arg.conv (parse, print)

let verify_mode_arg =
  Arg.(
    value
    & opt verify_mode_conv Verifier.Descent
    & info [ "verify-mode" ] ~docv:"MODE"
        ~doc:
          "Verification mode: $(b,descent) (classic recursive-descent re-discovery) \
           or $(b,witnessed) (one linear replay of the compiler-emitted witness; refuses \
           witnessless binaries).")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let compile_cmd =
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE") in
  let out =
    Arg.(value & opt string "a.dfl" & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output binary.")
  in
  let action source out policies ssa_q =
    match Frontend.compile ~policies ~ssa_q (read_file source) with
    | Error e ->
      Format.eprintf "%s: %a@." source Frontend.pp_error e;
      exit 1
    | Ok obj ->
      write_file out (Objfile.serialize obj);
      Format.printf "wrote %s (%d bytes text, %d bytes data, %d symbols, policies %s)@." out
        (Bytes.length obj.Objfile.text) (Bytes.length obj.Objfile.data)
        (List.length obj.Objfile.symbols) (Policy.Set.label policies)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and instrument a MiniC service.")
    Term.(const action $ src $ out $ policies_arg $ ssa_q_arg)

let verify_cmd =
  let obj_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"BINARY") in
  let action path policies mode =
    match Objfile.deserialize (Bytes.of_string (read_file path)) with
    | Error e ->
      Format.eprintf "%s: %s@." path e;
      exit 1
    | Ok obj ->
      (match Verifier.verify_mode ~mode ~policies ~ssa_q:obj.Objfile.ssa_q obj with
      | Ok (report, _) ->
        Format.printf "ACCEPTED (%s): %a@." (Verifier.mode_label mode) Verifier.pp_report
          report
      | Error rej ->
        Format.printf "REJECTED (%s): %a@." (Verifier.mode_label mode) Verifier.pp_rejection
          rej;
        let verdict =
          Report.explain_rejection ~text:obj.Objfile.text
            ~pass:(Verifier.pass_label rej.Verifier.pass) ~offset:rej.Verifier.offset
            ~reason:rej.Verifier.reason ()
        in
        Format.printf "%a@." Report.pp_verdict verdict;
        exit 2)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Run the in-enclave policy verifier on a target binary.")
    Term.(const action $ obj_file $ policies_arg $ verify_mode_arg)

let disasm_cmd =
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE") in
  let action source policies ssa_q =
    print_string (Frontend.listing ~policies ~ssa_q (read_file source))
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Compile a MiniC service and print the instrumented listing.")
    Term.(const action $ src $ policies_arg $ ssa_q_arg)

let run_cmd =
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SOURCE") in
  let inputs =
    Arg.(
      value & opt_all file []
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Data-owner input chunk (one per recv).")
  in
  let trace =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record the session's span tree and trace events. Without $(docv) (or with -), \
             print a human-readable span tree on stdout; with $(docv), write a Chrome \
             trace_event JSON loadable in about://tracing / Perfetto.")
  in
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Record the session's counters and histograms. Without $(docv) (or with -), print \
             them on stdout; with $(docv), write the full telemetry snapshot as JSON.")
  in
  let forensics =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "forensics" ] ~docv:"FILE"
          ~doc:
            "Attach the flight recorder and, on a policy abort or runtime fault (or a \
             verifier rejection), emit a forensic report. Without $(docv) (or with -), print \
             it human-readable on stdout; with $(docv), write a deflection-forensics/1 JSON \
             document.")
  in
  let profile =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Attach the sampling profiler. Without $(docv) (or with -), print the \
             collapsed-stack hotspot lines on stdout (flamegraph.pl-compatible); with \
             $(docv), write a deflection-profile/1 JSON document.")
  in
  let prof_interval =
    Arg.(
      value & opt int 64
      & info [ "prof-interval" ] ~docv:"N" ~doc:"Profiler sampling interval in virtual cycles.")
  in
  let prom =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Export the telemetry counters and histograms in Prometheus text exposition \
             format, to stdout (no $(docv) or -) or to $(docv).")
  in
  let action source input_files policies ssa_q verification trace metrics forensics
      profile prof_interval prom =
    let inputs = List.map (fun f -> Bytes.of_string (read_file f)) input_files in
    let tm =
      match (trace, metrics) with
      | None, None -> Telemetry.create ()
      | _ ->
        (* a tracing sink only when the user asked for observation *)
        Telemetry.create ~sink:(Telemetry.Sink.ring ~capacity:65536) ()
    in
    let recorder =
      match forensics with
      | None -> Flight_recorder.disabled
      | Some _ -> Flight_recorder.create ~capacity:512 ()
    in
    let profiler =
      match profile with
      | None -> Profiler.disabled
      | Some _ -> Profiler.create ~interval:prof_interval ()
    in
    let write_json what file doc =
      try
        let oc = open_out file in
        Json.to_channel ~pretty:true oc doc;
        close_out oc;
        Format.eprintf "%s written to %s@." what file
      with Sys_error e -> Format.eprintf "cannot write %s: %s@." what e
    in
    let write_text what file text =
      try
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Format.eprintf "%s written to %s@." what file
      with Sys_error e -> Format.eprintf "cannot write %s: %s@." what e
    in
    let dump () =
      let snap = Telemetry.snapshot tm in
      (match trace with
      | None -> ()
      | Some "-" -> Format.printf "%a@." Telemetry.pp_snapshot snap
      | Some file -> write_json "trace" file (Telemetry.chrome_trace snap));
      (match metrics with
      | None -> ()
      | Some "-" ->
        if trace <> Some "-" then Format.printf "%a@." Telemetry.pp_snapshot snap
      | Some file -> write_json "metrics" file (Telemetry.snapshot_to_json snap));
      match prom with
      | None -> ()
      | Some "-" -> print_string (build_info_gauge () ^ Prometheus.of_snapshot snap)
      | Some file ->
        write_text "prometheus metrics" file (build_info_gauge () ^ Prometheus.of_snapshot snap)
    in
    let dump_profile cycles =
      match profile with
      | None -> ()
      | Some "-" -> print_string (Profiler.collapsed profiler)
      | Some file -> write_json "profile" file (Profiler.to_json ?cycles profiler)
    in
    match
      Deflection.Session.run ~policies ~ssa_q ~verification ~tm ~recorder ~profiler
        ~source:(read_file source) ~inputs ()
    with
    | Error e ->
      Format.eprintf "session failed: %a@." Deflection.Session.pp_error e;
      (* a rejected binary still gets an explained verdict when forensics
         were requested: recompile outside the enclave to recover the text *)
      (match (e, forensics) with
      | Deflection.Session.Verifier_rejection rej, Some dest ->
        let text =
          match Deflection.Session.compile_only ~policies ~ssa_q (read_file source) with
          | Ok obj -> Some obj.Objfile.text
          | Error _ -> None
        in
        let verdict =
          Report.explain_rejection ?text ~pass:(Verifier.pass_label rej.Verifier.pass)
            ~offset:rej.Verifier.offset ~reason:rej.Verifier.reason ()
        in
        (match dest with
        | "-" -> Format.printf "%a@." Report.pp_verdict verdict
        | file -> write_json "forensics" file (Report.verdict_to_json verdict))
      | _ -> ());
      dump ();
      exit (Deflection.Session.exit_code e)
    | Ok o ->
      Format.printf "verifier: %a@." Verifier.pp_report o.Deflection.Session.verifier_report;
      Format.printf "exit: %a | cycles=%d instructions=%d ocalls=%d aexes=%d leaked=%d@."
        Interp.pp_exit_reason o.Deflection.Session.exit o.Deflection.Session.cycles
        o.Deflection.Session.instructions o.Deflection.Session.ocalls
        o.Deflection.Session.aexes o.Deflection.Session.leaked_bytes;
      List.iteri
        (fun i out -> Format.printf "output[%d] = %S@." i (Bytes.to_string out))
        o.Deflection.Session.outputs;
      (match (forensics, o.Deflection.Session.crash) with
      | None, _ -> ()
      | Some _, None -> ()
      | Some "-", Some crash -> Format.printf "%a@." Report.pp_crash crash
      | Some file, Some crash -> write_json "forensics" file (Report.crash_to_json crash));
      dump_profile (Some o.Deflection.Session.cycles);
      dump ();
      (* the protocol succeeded but the enclave program died: distinct
         codes so scripts can tell "service misbehaved" (9) and "watchdog
         fuel ran out" (11) from "pipeline failed" *)
      (match Deflection.Session.process_exit_code (Ok o) with
      | 0 -> ()
      | code -> exit code)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the full attested session on a MiniC service."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 on success, 2 if the verifier rejected the binary, 3 on a compile error, 4 on \
              an attestation failure, 5 on a runtime-stage protocol failure, 6 on a delivery \
              failure, 7 on an upload failure, 8 on an output-decryption failure, 9 when the \
              session succeeded but the enclave program aborted or faulted (policy abort, \
              memory fault, ...), 10 when a protocol stage exhausted its retry/backoff budget \
              without a structured response, 11 when the interpreter's watchdog fuel ran out, \
              1 otherwise.";
         ])
    Term.(
      const action $ src $ inputs $ policies_arg $ ssa_q_arg $ verify_mode_arg $ trace
      $ metrics $ forensics $ profile $ prof_interval $ prom)

let chaos_cmd =
  let seeds =
    Arg.(value & opt int 200 & info [ "seeds" ] ~docv:"N" ~doc:"Number of fault plans to run.")
  in
  let base_seed =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED" ~doc:"Plan $(i,i) uses seed $(docv) + i.")
  in
  let replay =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Instead of a campaign, run the single plan derived from $(docv) and print its \
             case record — byte-for-byte identical on every run, so a failing campaign case \
             replays exactly.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the deflection-chaos/1 campaign report to $(docv).")
  in
  let action seeds base_seed replay out =
    match replay with
    | Some seed ->
      let case = Deflection.Campaign.run_case ~seed:(Int64.of_int seed) in
      print_endline (Json.to_string ~pretty:true (Deflection.Campaign.case_to_json case));
      if not (Deflection_chaos.Oracle.ok case.Deflection.Campaign.verdict) then exit 2
    | None ->
      let report = Deflection.Campaign.run ~base_seed:(Int64.of_int base_seed) ~seeds () in
      let violations = Deflection.Campaign.violations report in
      (match out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        Json.to_channel ~pretty:true oc (Deflection.Campaign.report_to_json report);
        close_out oc;
        Format.eprintf "campaign report written to %s@." file);
      Format.printf "%d plans, %d fail-closed violations@." seeds violations;
      List.iter
        (fun (site, n) -> if n > 0 then Format.printf "  %-16s %d faults injected@." site n)
        (Deflection.Campaign.histogram report);
      if violations > 0 then exit 2
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a deterministic fault-injection campaign against the full attested session and \
          check the fail-closed invariants (no fault may flip a rejection into an acceptance, \
          leak plaintext across the enclave boundary, or produce an undocumented exit code)."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P "0 when every plan upheld the invariants, 2 on any violation, 1 otherwise.";
         ])
    Term.(const action $ seeds $ base_seed $ replay $ out)

let fuzz_cmd =
  let seeds =
    Arg.(
      value & opt int 200
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of generated-program cases.")
  in
  let mutants =
    Arg.(
      value & opt int 200
      & info [ "mutants" ] ~docv:"N" ~doc:"Number of adversarial binary-mutant cases.")
  in
  let witness_mutants =
    Arg.(
      value & opt int 200
      & info [ "witness-mutants" ] ~docv:"N"
          ~doc:
            "Number of doctored-witness cases: honest compiler output whose witness is then \
             mutated (lying boundary maps, omitted or relabeled claims, shifted extents, \
             stale text). Each must either reject in the Witness pass or accept with exactly \
             the descent's report.")
  in
  let base_seed =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED"
          ~doc:"Root seed; every case is a pure function of $(docv) and its index.")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Instead of a campaign, replay the single serialized case in $(docv) (a \
             deflection-fuzz/1 case object, or any object with a \"case\" field such as a \
             saved failure record) — byte-for-byte identical on every run.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the deflection-fuzz/1 campaign report to $(docv).")
  in
  let module Fuzz = Deflection_fuzz.Fuzz in
  let action seeds mutants witness_mutants base_seed replay out =
    match replay with
    | Some file -> (
      match Json.parse (read_file file) with
      | Error e ->
        Format.eprintf "%s: invalid JSON: %s@." file e;
        exit 1
      | Ok doc -> (
        let case_json = Option.value ~default:doc (Json.member "case" doc) in
        match Fuzz.case_of_json case_json with
        | Error e ->
          Format.eprintf "%s: not a deflection-fuzz/1 case: %s@." file e;
          exit 1
        | Ok case -> (
          match Fuzz.run_case case with
          | Ok Fuzz.Accepted_ran ->
            Format.printf "clean: accepted and ran with zero policy violations@."
          | Ok Fuzz.Rejected_static ->
            Format.printf "clean: rejected before execution (fail-closed)@."
          | Error failure ->
            let shrunk = Fuzz.shrink failure in
            print_endline
              (Json.to_string ~pretty:true
                 (Json.Obj
                    [
                      ("original", Fuzz.failure_to_json failure);
                      ("shrunk", Fuzz.failure_to_json shrunk);
                    ]));
            exit 2)))
    | None ->
      let report =
        Fuzz.campaign ~base_seed:(Int64.of_int base_seed) ~programs:seeds ~mutants
          ~witness_mutants ()
      in
      (match out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        Json.to_channel ~pretty:true oc (Fuzz.report_to_json report);
        close_out oc;
        Format.eprintf "fuzz report written to %s@." file);
      Format.printf
        "%d programs (%d clean), %d mutants (%d rejected, %d ran clean), %d witness \
         mutants (%d rejected, %d ran clean), %d failures@."
        report.Fuzz.programs report.Fuzz.programs_clean report.Fuzz.mutants
        report.Fuzz.mutants_rejected report.Fuzz.mutants_clean report.Fuzz.witness_mutants
        report.Fuzz.wmutants_rejected report.Fuzz.wmutants_clean
        (List.length report.Fuzz.failures);
      List.iter
        (fun (orig, shrunk) ->
          Format.printf "  %s: %s@."
            (Fuzz.failure_kind_label orig.Fuzz.kind)
            orig.Fuzz.detail;
          Format.printf "    shrunk: %s@."
            (Json.to_string (Fuzz.failure_to_json shrunk)))
        report.Fuzz.failures;
      if not report.Fuzz.selftest_rejection_caught then
        Format.printf "SELF-TEST FAILED: known-bad mutant was not rejected@.";
      if not report.Fuzz.selftest_monitor_caught then
        Format.printf "SELF-TEST FAILED: runtime monitors missed a spliced raw store@.";
      if not report.Fuzz.selftest_witness_caught then
        Format.printf "SELF-TEST FAILED: the planted doctored witness was not rejected@.";
      if
        report.Fuzz.failures <> []
        || (not report.Fuzz.selftest_rejection_caught)
        || (not report.Fuzz.selftest_monitor_caught)
        || not report.Fuzz.selftest_witness_caught
      then exit 2
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Run a deterministic differential fuzzing campaign against the verifier: generated \
          well-typed programs must pass verification and match the reference evaluator \
          (completeness + differential oracles); adversarial binary mutants must be rejected \
          or run with zero monitored policy violations (soundness oracle). Failures are \
          auto-shrunk and serialized for byte-for-byte replay."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when every case upheld its oracle and both harness self-tests caught their \
              planted defects, 2 on any oracle failure or missed self-test, 1 otherwise.";
         ])
    Term.(const action $ seeds $ mutants $ witness_mutants $ base_seed $ replay $ out)

(* ------------------------------------------------------------------ *)
(* gateway: verify-once/admit-many batch serving demo. The batch cycles
   three embedded services — a compliant reducer, a P1-violating store
   (runtime abort) and a binary annotated for a narrower policy set than
   the gateway enforces (verifier rejection) — so one run exercises the
   cached-acceptance, cached-rejection and crash paths together. *)

let gateway_compliant_src =
  "int acc[16];\n\
   int main() {\n\
  \  int s = 0;\n\
  \  for (int i = 0; i < 96; i = i + 1) {\n\
  \    acc[i % 16] = i * 3;\n\
  \    s = s + acc[i % 16] % 7;\n\
  \  }\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

let gateway_aborting_src = "int buf[4];\nint main() {\n  buf[2000000] = 7;\n  return 0;\n}\n"

let gateway_rejected_src =
  "int cell[8];\nint main() {\n  cell[3] = 11;\n  print_int(cell[3]);\n  return 0;\n}\n"

let gateway_jobs ~sessions ~seed =
  List.init sessions (fun i ->
      let seed = Int64.of_int (seed + i) in
      match i mod 3 with
      | 0 -> Gateway.job ~label:(Printf.sprintf "ok-%d" i) ~seed gateway_compliant_src
      | 1 -> Gateway.job ~label:(Printf.sprintf "abort-%d" i) ~seed gateway_aborting_src
      | _ ->
        (* annotated for P1 only: the P1-P6 gateway's verifier refuses it *)
        Gateway.job
          ~label:(Printf.sprintf "reject-%d" i)
          ~compile_policies:Policy.Set.p1 ~seed gateway_rejected_src)

let gateway_result_json (r : Gateway.session_result) =
  let status, detail, outputs, cycles, instructions =
    match r.Gateway.outcome with
    | Ok o ->
      ( "ok",
        Interp.exit_reason_to_string o.Deflection.Session.exit,
        o.Deflection.Session.outputs,
        o.Deflection.Session.cycles,
        o.Deflection.Session.instructions )
    | Error e -> ("error", Deflection.Session.error_to_string e, [], 0, 0)
  in
  Json.Obj
    [
      ("label", Json.Str r.Gateway.label);
      ("seed", Json.Int (Int64.to_int r.Gateway.seed));
      ("status", Json.Str status);
      ("exit_code", Json.Int r.Gateway.exit_code);
      ("detail", Json.Str detail);
      ("outputs", Json.List (List.map (fun b -> Json.Str (Bytes.to_string b)) outputs));
      ("cycles", Json.Int cycles);
      ("instructions", Json.Int instructions);
    ]

let gateway_cmd =
  let sessions =
    Arg.(
      value & opt int 8
      & info [ "n"; "sessions" ] ~docv:"N" ~doc:"Number of sessions in the batch.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"K" ~doc:"Worker domains to fan the batch out over.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Base seed; session i uses S+i.")
  in
  let cold =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Disable the verdict cache and compile-once sharing: every session compiles and \
             verifies its own delivery (the sequential baseline the bench compares against).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the deflection-gateway/1 JSON document to $(docv) instead of stdout.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record every session's span tree, graft the per-worker lanes under one \
             gateway.batch root span, and write the Chrome trace_event JSON to $(docv) \
             (loadable in about://tracing / Perfetto: one lane per worker domain, every \
             span carrying sid/parent links back to the batch root).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Export the batch's merged counters and per-stage latency histograms \
             (cumulative le buckets, OpenMetrics-compatible) in Prometheus text \
             exposition format to $(docv).")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:
            "Attach the attested audit plane: every admission decision appends one record to \
             a hash-chained log sealed under the platform derived from --seed, and the \
             deflection-audit/2 document (MAC'd segments of records, chain heads, binding \
             quote) is written to $(docv). Check it with `deflectionc audit verify $(docv) --seed \
             S`.")
  in
  let action sessions jobs seed cold out trace prom audit policies ssa_q verification =
    if sessions < 1 then begin
      Format.eprintf "gateway: --sessions must be >= 1@.";
      exit 1
    end;
    if jobs < 1 then begin
      Format.eprintf "gateway: --jobs must be >= 1@.";
      exit 1
    end;
    let cache = if cold then None else Some (Verdict_cache.create ()) in
    let btm =
      match trace with
      | Some _ -> Telemetry.create ~sink:(Telemetry.Sink.ring ~capacity:65536) ()
      | None -> Telemetry.create ()
    in
    let audit_log =
      match audit with
      | None -> None
      | Some _ ->
        (* the sealing platform is re-derivable from --seed alone, so the
           consumer side (`audit verify --seed S`) never needs the key *)
        let platform = Attestation.Platform.create ~seed:(Int64.of_int seed) in
        Some (Audit.Log.create ~platform ())
    in
    let t0 = Unix.gettimeofday () in
    let batch =
      Gateway.run_batch ~jobs ~policies ~ssa_q ~verification ?cache ?audit:audit_log ~tm:btm
        (gateway_jobs ~sessions ~seed)
    in
    let dt = Unix.gettimeofday () -. t0 in
    let doc =
      Json.Obj
        [
          ("schema", Json.Str "deflection-gateway/1");
          ("sessions", Json.Int sessions);
          ("seed", Json.Int seed);
          ("policies", Json.Str (Policy.Set.label policies));
          ("ssa_q", Json.Int ssa_q);
          ("verification", Json.Str (Verifier.mode_label verification));
          ("warm", Json.Bool (not cold));
          ("distinct_binaries", Json.Int batch.Gateway.distinct_binaries);
          ( "cache",
            match batch.Gateway.cache_stats with
            | None -> Json.Null
            | Some s ->
              Json.Obj
                (List.map (fun (k, v) -> (k, Json.Int v)) (Verdict_cache.stats_to_list s)) );
          ("results", Json.List (List.map gateway_result_json batch.Gateway.results));
          ( "counters",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) batch.Gateway.counters) );
          (* everything that legitimately varies with the fan-out or the
             clock lives here: strip "timing" and two runs of the same
             batch at different --jobs compare byte-identical *)
          ( "timing",
            Json.Obj
              [
                ("jobs", Json.Int jobs);
                ("workers", Json.Int batch.Gateway.workers);
                ("wall_s", Json.Float dt);
                ( "sessions_per_s",
                  Json.Float (if dt > 0. then float_of_int sessions /. dt else 0.) );
                (* per-stage wall latency percentiles: the sample counts
                   are schedule-independent, the nanosecond values are
                   not, so the whole block sits inside "timing" *)
                ( "latency_ns",
                  Json.Obj
                    (List.map
                       (fun (name, h) -> (name, Hdr.to_json h))
                       batch.Gateway.latencies) );
              ] );
        ]
    in
    (match (audit, audit_log) with
    | Some file, Some log ->
      let oc = open_out file in
      Json.to_channel ~pretty:true oc (Audit.Log.seal log);
      close_out oc;
      Format.eprintf "audit log written to %s (%d records, head %s)@." file
        (Audit.Log.length log)
        (String.sub (Audit.Log.head log) 0 16)
    | _ -> ());
    (match (trace, batch.Gateway.trace) with
    | Some file, Some snap ->
      let oc = open_out file in
      Json.to_channel ~pretty:true oc (Telemetry.chrome_trace snap);
      close_out oc;
      Format.eprintf "gateway trace written to %s@." file
    | _ -> ());
    (match prom with
    | None -> ()
    | Some file ->
      let counters_snap =
        {
          Telemetry.spans = [];
          counters = batch.Gateway.counters;
          histograms = [];
          events = [];
          dropped_events = 0;
        }
      in
      let text =
        build_info_gauge ()
        ^ Prometheus.of_snapshot counters_snap
        ^ Prometheus.of_hdr_families ~prefix:"deflection_gateway_latency_ns"
            batch.Gateway.latencies
      in
      let oc = open_out file in
      output_string oc text;
      close_out oc;
      Format.eprintf "gateway metrics written to %s@." file);
    match out with
    | None -> print_endline (Json.to_string ~pretty:true doc)
    | Some file ->
      let oc = open_out file in
      Json.to_channel ~pretty:true oc doc;
      close_out oc;
      Format.eprintf "gateway batch written to %s@." file
  in
  Cmd.v
    (Cmd.info "gateway"
       ~doc:
         "Serve a batch of sessions through the verify-once/admit-many gateway (measurement \
          -keyed verdict cache + domain fan-out) and emit a deflection-gateway/1 JSON \
          document."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The batch cycles three embedded services: a compliant reducer, a program whose \
              out-of-bounds store trips the inlined P1 bounds annotation at runtime, and a \
              binary annotated for P1 only, which the gateway's P1-P6 verifier rejects. With \
              the cache enabled (default), each distinct binary is compiled once and its \
              verdict — acceptance or rejection — is verified once; every other session \
              admits (or refuses) from the cache. Results are byte-identical for any --jobs \
              value apart from the \"timing\" object, which carries the wall-clock numbers: \
              throughput plus per-stage latency percentiles (p50/p90/p95/p99/p99.9) for \
              session, verify, execute, the cache-hit/miss session split and the \
              instrumented verifier passes (verifier.pass.*).";
         ])
    Term.(
      const action $ sessions $ jobs $ seed $ cold $ out $ trace $ prom $ audit
      $ policies_arg $ ssa_q_arg $ verify_mode_arg)

(* ------------------------------------------------------------------ *)
(* serve: the persistent multi-tenant gateway server. One process serves
   an open-loop load round by round, sealing its verdict caches (and the
   audit log, when requested) every persistence cadence so a kill -9 at
   any point loses at most one round of warmness. *)

let serve_cmd =
  let offered =
    Arg.(
      value & opt int 200
      & info [ "offered" ] ~docv:"N" ~doc:"Total sessions the load generator offers.")
  in
  let rounds =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"R" ~doc:"Serving rounds the offered load is spread over.")
  in
  let tenants =
    Arg.(
      value & opt int 4
      & info [ "tenants" ] ~docv:"N"
          ~doc:
            "Tenant count (t0..tN-1); tenant t3, when present, is fuel-capped so its \
             sessions exhaust the watchdog (exit 11).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"CAP" ~doc:"Ingress queue capacity.")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc:"Sessions admitted per round.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"K"
          ~doc:"Worker domains per tenant sub-batch (timing only; results are identical).")
  in
  let seed =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"S"
          ~doc:"Drives the arrival schedule and the sealing platform.")
  in
  let state =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "Persistence root: the verdict caches are sealed to \
             $(docv)/verdict-cache.json (a deflection-server-cache/3 document) every \
             --persist-every rounds and reloaded — segment by segment, fail-closed — on the \
             next start.")
  in
  let persist_every =
    Arg.(
      value & opt int 1
      & info [ "persist-every" ] ~docv:"N" ~doc:"Seal the caches every $(docv) rounds.")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:
            "Write the sealed deflection-audit/2 admission log to $(docv) after every \
             round (so it survives a kill) and at shutdown. Check with `deflectionc \
             audit verify $(docv) --seed S`.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the deflection-server/1 report to $(docv) instead of stdout.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"ROUND"
          ~doc:
            "Scripted SIGKILL: exit 137 after round $(docv)'s sessions ran, with no \
             drain and no final seal — only the periodic seals survive.")
  in
  let chaos =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos" ] ~docv:"SEED"
          ~doc:
            "Run under the server fault plan derived from $(docv) (torn seals, stale \
             or MAC-corrupted segments at load, queue storms, kill points).")
  in
  let expect_warm =
    Arg.(
      value & flag
      & info [ "expect-warm" ]
          ~doc:
            "Assert this is a warm restart: fail with exit 14 unless sealed state was \
             found and at least one admitted session hit a recovered verdict.")
  in
  let max_shed_pct =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-shed-pct" ] ~docv:"P"
          ~doc:"Fail with exit 13 when more than $(docv)%% of offered sessions were shed.")
  in
  let campaign =
    Arg.(
      value & flag
      & info [ "campaign" ]
          ~doc:
            "Instead of one serving run, run the chaos campaign: per seed, a persisted \
             multi-tenant load under a generated fault plan with mid-run restarts, \
             checking every admitted result against the load oracle and the audit chain. \
             Exits 2 on any fail-open or recovery violation.")
  in
  let camp_seeds =
    Arg.(value & opt int 4 & info [ "seeds" ] ~docv:"N" ~doc:"Campaign: fault plans to run.")
  in
  let camp_base =
    Arg.(
      value & opt int 1000
      & info [ "base-seed" ] ~docv:"SEED" ~doc:"Campaign: plan $(i,i) uses seed $(docv) + i.")
  in
  let action offered rounds tenants queue batch jobs seed state persist_every audit out
      kill_after chaos_seed expect_warm max_shed_pct campaign camp_seeds camp_base policies
      ssa_q verification =
    if campaign then begin
      let state_root = Option.value ~default:(Filename.concat (Filename.get_temp_dir_name ()) "deflection-server-chaos") state in
      let report =
        Server.chaos_campaign ~base_seed:(Int64.of_int camp_base) ~seeds:camp_seeds ~offered
          ~state_root ()
      in
      (match out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        Json.to_channel ~pretty:true oc (Server.campaign_to_json report);
        close_out oc;
        Format.eprintf "campaign report written to %s@." file);
      Format.printf "%d plans, %d violations@." camp_seeds report.Server.total_violations;
      List.iter
        (fun (site, n) -> if n > 0 then Format.printf "  %-16s %d faults injected@." site n)
        report.Server.fired;
      List.iter
        (fun case ->
          List.iter
            (fun v -> Format.printf "  seed %Ld: %s@." case.Server.c_seed v)
            case.Server.c_violations)
        report.Server.cases;
      if report.Server.total_violations > 0 then exit 2
    end
    else begin
      if offered < 1 || rounds < 1 || tenants < 1 || jobs < 1 then begin
        Format.eprintf "serve: --offered, --rounds, --tenants and --jobs must be >= 1@.";
        exit 1
      end;
      let tenant_cfgs =
        List.init tenants (fun i ->
            let quota =
              if i = 3 then { Server.default_quota with Server.fuel = Some 5 }
              else Server.default_quota
            in
            { Server.t_name = Printf.sprintf "t%d" i; Server.t_quota = quota })
      in
      let cfg =
        {
          Server.default_config with
          Server.policies;
          ssa_q;
          verification;
          tenants = tenant_cfgs;
          queue_capacity = queue;
          batch_size = batch;
          workers = jobs;
          seed = Int64.of_int seed;
          state_dir = state;
          persist_every;
        }
      in
      let engine =
        match chaos_seed with
        | None -> Chaos.disabled
        | Some s -> Chaos.of_plan (Chaos.generate_server ~seed:(Int64.of_int s))
      in
      let server = Server.create ~chaos:engine cfg in
      (match Server.recovery server with
      | Some r when r.Persist.found ->
        Format.eprintf "recovery: generation %d, %d entrie(s) loaded, %d segment(s) discarded%s%s@."
          r.Persist.generation r.Persist.entries_loaded r.Persist.segments_discarded
          (if r.Persist.malformed then ", file malformed (all cold)" else "")
          (if r.Persist.truncated then ", tail truncated" else "")
      | _ -> ());
      let write_audit () =
        match audit with
        | None -> ()
        | Some file ->
          let oc = open_out file in
          Json.to_channel ~pretty:true oc (Server.audit_doc server);
          close_out oc
      in
      let t0 = Unix.gettimeofday () in
      let rec loop r =
        if r < rounds && not (Server.killed server) then begin
          Server.offer_load server ~offered ~rounds;
          match Server.run_round server with
          | `Killed -> ()
          | `Ok ->
            write_audit ();
            (match kill_after with
            | Some k when r >= k ->
              Format.eprintf "kill point: dying after round %d without a seal@." r;
              Stdlib.exit 137
            | _ -> ());
            loop (r + 1)
        end
      in
      loop 0;
      Server.shutdown server;
      let dt = Unix.gettimeofday () -. t0 in
      write_audit ();
      let doc = Server.doc server in
      (match out with
      | None -> print_endline (Json.to_string ~pretty:true doc)
      | Some file ->
        let oc = open_out file in
        Json.to_channel ~pretty:true oc doc;
        close_out oc;
        Format.eprintf "server report written to %s@." file);
      let geti k = match Json.member k doc with Some (Json.Int n) -> n | _ -> 0 in
      let offered_n = geti "offered"
      and admitted_n = geti "admitted"
      and shed_n = geti "shed"
      and warm = geti "warm_hits" in
      Format.eprintf
        "served %d round(s) in %.2fs: offered %d, admitted %d, shed %d, rejected %d, warm \
         hits %d, preloaded %d@."
        (Server.round server) dt offered_n admitted_n shed_n (geti "rejected") warm
        (geti "preloaded");
      if Server.killed server then begin
        Format.eprintf "chaos kill point fired: state is whatever the last seal kept@.";
        Stdlib.exit 137
      end;
      (match max_shed_pct with
      | Some p
        when offered_n > 0 && 100. *. float_of_int shed_n /. float_of_int offered_n > p ->
        Format.eprintf "shed %.1f%% > %.1f%%: overloaded@."
          (100. *. float_of_int shed_n /. float_of_int offered_n)
          p;
        exit Server.exit_overloaded
      | _ -> ());
      if expect_warm then begin
        let recovered =
          match Server.recovery server with Some r -> r.Persist.found | None -> false
        in
        if (not recovered) || warm = 0 || geti "preloaded" = 0 then begin
          Format.eprintf
            "expected a warm restart but recovery found nothing to reuse (found=%b, \
             preloaded=%d, warm hits=%d)@."
            recovered (geti "preloaded") warm;
          exit Server.exit_recovery_failure
        end
      end;
      ignore admitted_n
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent multi-tenant gateway server against a deterministic open-loop \
          load: bounded ingress queue with typed shedding, per-tenant verdict caches, \
          quotas and fuel budgets, and sealed crash-recoverable cache persistence."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Requests arrive round by round from a seed-derived schedule (so a restarted \
              server replays the same workload). Each round admits up to --batch sessions, \
              skipping tenants at their in-flight quota without blocking the queue behind \
              them; offers beyond --queue capacity are shed with a typed Overloaded \
              rejection. With --state, the per-tenant verdict caches are sealed under the \
              platform key every --persist-every rounds; a restart verifies each sealed \
              segment and re-serves warm, discarding (only) whatever the host tampered \
              with. Everything in the report outside the \"timing\" object is byte-identical \
              for any --jobs value.";
           `S Manpage.s_exit_status;
           `P
             "0 on a completed run, 2 on campaign violations, 13 when more than \
              --max-shed-pct of the offered load was shed, 14 when --expect-warm found no \
              recovered warmness, 137 when --kill-after (or a chaos kill point) stopped the \
              server, 1 otherwise.";
         ])
    Term.(
      const action $ offered $ rounds $ tenants $ queue $ batch $ jobs $ seed $ state
      $ persist_every $ audit $ out $ kill_after $ chaos $ expect_warm $ max_shed_pct
      $ campaign $ camp_seeds $ camp_base $ policies_arg $ ssa_q_arg $ verify_mode_arg)

(* ------------------------------------------------------------------ *)
(* audit: the consumer side of the attested audit plane. `verify`
   re-walks a sealed deflection-audit/2 document under the platform
   re-derived from --seed and exits 12 on any tamper; `show` renders the
   records without integrity checks. *)

let audit_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"S"
        ~doc:
          "Platform seed the log was sealed under (the producing gateway's --seed): the \
           sealing key and the attestation-service view are re-derived from it, so the \
           verifier never handles the key material itself.")

let parse_json_file path =
  match Json.parse (read_file path) with
  | Ok doc -> doc
  | Error e ->
    Format.eprintf "%s: invalid JSON: %s@." path e;
    exit 1

let audit_verify_cmd =
  let log_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG") in
  let action path seed =
    let platform = Attestation.Platform.create ~seed:(Int64.of_int seed) in
    match Audit.verify ~platform (parse_json_file path) with
    | Ok s ->
      Format.printf "OK: %d record(s) in %d sealed segment(s); chain, MACs and quote verify@."
        s.Audit.n_records s.Audit.n_segments
    | Error tamper ->
      Format.eprintf "TAMPERED: %a@." Audit.pp_tamper tamper;
      exit 12
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-walk a sealed audit log: recompute the hash chain over every record, check \
          every segment MAC and the closing MAC under the re-derived sealing key, and check \
          the quote binding (report data = chain head)."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 when the document is byte-for-byte the history the enclave sealed, 12 on any \
              tamper (flip, drop, reorder, truncation, splice, forged quote), 1 otherwise.";
         ])
    Term.(const action $ log_file $ audit_seed_arg)

let audit_show_cmd =
  let log_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG") in
  let action path =
    match Audit.records_of_doc (parse_json_file path) with
    | Error e ->
      Format.eprintf "%s: %s@." path e;
      exit 1
    | Ok records ->
      Format.printf "%-5s %-4s %-8s %-12s %-8s %-4s %s@." "seq" "lane" "cache" "measurement"
        "policies" "q" "verdict";
      List.iter
        (fun (r : Audit.record) ->
          let verdict =
            match r.Audit.verdict with
            | Audit.Accepted rep ->
              Printf.sprintf "accepted (%d instructions)" rep.Verifier.instructions_checked
            | Audit.Rejected rej ->
              Printf.sprintf "rejected (%s@%d: %s)"
                (Verifier.pass_label rej.Verifier.pass)
                rej.Verifier.offset rej.Verifier.reason
          in
          Format.printf "%-5d %-4d %-8s %-12s %-8s %-4d %s@." r.Audit.seq r.Audit.lane
            (Audit.cache_outcome_label r.Audit.cache)
            (String.sub r.Audit.measurement 0 12)
            r.Audit.policies r.Audit.ssa_q verdict)
        records;
      Format.printf "%d record(s)@." (List.length records)
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Render the records of an audit log (no integrity checks — use `audit verify` for \
          those).")
    Term.(const action $ log_file)

let audit_cmd =
  Cmd.group
    (Cmd.info "audit"
       ~doc:
         "Inspect and verify the attested admission audit plane produced by `gateway \
          --audit`.")
    [ audit_verify_cmd; audit_show_cmd ]

let version_cmd =
  let action () =
    Format.printf "deflectionc %s (git %s)@." tool_version (git_rev ());
    Format.printf "schemas:";
    List.iter (fun (s, v) -> Format.printf " deflection-%s/%s" s v) schema_versions;
    Format.printf "@."
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the tool version, the git revision it was built from, and the version of \
          every machine-readable schema it emits (also exported as the \
          deflection_build_info gauge in Prometheus expositions).")
    Term.(const action $ const ())

let report_cmd =
  let doc_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"JSON") in
  let action path =
    match Json.parse (read_file path) with
    | Error e ->
      Format.eprintf "%s: invalid JSON: %s@." path e;
      exit 1
    | Ok doc ->
      (match Report.render doc with
      | Ok text -> print_string (text ^ "\n")
      | Error e ->
        Format.eprintf "%s: %s@." path e;
        exit 1)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Pretty-print a saved forensics (deflection-forensics/1) or profile \
          (deflection-profile/1) JSON document.")
    Term.(const action $ doc_file)

let () =
  let info =
    Cmd.info "deflectionc" ~version:"1.0"
      ~doc:"DEFLECTION: delegated in-enclave verification of privacy compliance."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd;
            verify_cmd;
            disasm_cmd;
            run_cmd;
            gateway_cmd;
            serve_cmd;
            audit_cmd;
            chaos_cmd;
            fuzz_cmd;
            report_cmd;
            version_cmd;
          ]))
