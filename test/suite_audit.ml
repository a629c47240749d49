(* The attested admission audit plane: seal/verify round trips, the
   quote binding of a fan-out batch's chain head, and schedule
   independence of the record content multiset (K=1 vs K=4). The tamper
   taxonomy (flip, drop, reorder, renumbered swap, truncation at a
   segment boundary, spliced segment, forged quote, wrong platform) is
   the audit half of the tamper table in [Suite_sealed_log]. *)

module Audit = Deflection_audit.Audit
module Gateway = Deflection_gateway.Gateway
module Verdict_cache = Deflection_gateway.Verdict_cache
module Session = Deflection.Session
module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Sha256 = Deflection_crypto.Sha256
module Json = Deflection_telemetry.Json

let platform = Suite_sealed_log.platform
let sample_log = Suite_sealed_log.sample_log
let check_ok = Suite_sealed_log.check_ok

let nth_str name j =
  match Json.member name j with Some (Json.Str s) -> s | _ -> Alcotest.failf "no %S" name

let test_seal_verify_roundtrip () =
  let plat = platform () in
  let log = sample_log plat in
  let s = check_ok "roundtrip" plat (Audit.Log.seal log) in
  Alcotest.(check int) "records" 5 s.Audit.n_records;
  (* 2 closed segments of 2 + the sealed trailing partial of 1 *)
  Alcotest.(check int) "segments" 3 s.Audit.n_segments

let test_text_roundtrip () =
  (* the document survives serialization to text and back — what the CLI
     writes is what `audit verify` re-walks *)
  let plat = platform () in
  let text = Json.to_string ~pretty:true (Audit.Log.seal (sample_log plat)) in
  match Json.parse text with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc -> ignore (check_ok "text roundtrip" plat doc)

let test_seal_is_nondestructive () =
  let plat = platform () in
  let log = sample_log plat in
  let first = Audit.Log.seal log in
  ignore
    (Audit.Log.append log
       ~measurement:(Sha256.digest_string "late-binary")
       ~policies:Policy.Set.p1_p6 ~mode:Verifier.Descent ~ssa_q:20
       ~verdict:(Audit.Accepted (Suite_sealed_log.report 9)) ~cache:Audit.Miss
       ~lane:0);
  let second = Audit.Log.seal log in
  let a = check_ok "first seal" plat first in
  let b = check_ok "second seal" plat second in
  Alcotest.(check int) "first covers 5" 5 a.Audit.n_records;
  Alcotest.(check int) "second covers 6" 6 b.Audit.n_records

(* ---- integration with the gateway / session stack ---------------- *)

let compliant_src = "int main() { print_int(42); return 0; }"
let aborting_src = "int buf[4];\nint main() { buf[2000000] = 7; return 0; }"
let rejected_src = "int cell[8];\nint main() { cell[3] = 9; print_int(cell[3]); return 0; }"

let mixed_jobs n =
  List.init n (fun i ->
      let seed = Int64.of_int (1 + i) in
      match i mod 3 with
      | 0 -> Gateway.job ~label:(Printf.sprintf "ok-%d" i) ~seed compliant_src
      | 1 -> Gateway.job ~label:(Printf.sprintf "abort-%d" i) ~seed aborting_src
      | _ ->
        Gateway.job ~compile_policies:Policy.Set.p1
          ~label:(Printf.sprintf "reject-%d" i)
          ~seed rejected_src)

let batch_log ~k n =
  let plat = platform () in
  let log = Audit.Log.create ~platform:plat () in
  let cache = Verdict_cache.create () in
  let batch = Gateway.run_batch ~jobs:k ~cache ~audit:log (mixed_jobs n) in
  (plat, log, batch)

let test_batch_head_binds_quote () =
  (* K=4: one record per session, the sealed chain head IS the quote's
     report data, and the whole document verifies *)
  let n = 8 in
  let plat, log, _ = batch_log ~k:4 n in
  let doc = Audit.Log.seal log in
  Alcotest.(check int) "one record per session" n (Audit.Log.length log);
  let head = nth_str "head" doc in
  let report_data =
    match Json.member "quote" doc with
    | Some q -> nth_str "report_data" q
    | None -> Alcotest.fail "no quote"
  in
  Alcotest.(check string) "report data is the chain head" head report_data;
  ignore (check_ok "k=4 batch" plat doc)

let test_content_multiset_schedule_independent () =
  (* the audited evidence is the same history whatever the fan-out:
     content keys (seq and lane zeroed) form equal multisets for K=1 and
     K=4, and the single-flight cache yields exactly one Miss per
     distinct (measurement, policies, ssa_q) key *)
  let n = 9 in
  let _, log1, _ = batch_log ~k:1 n in
  let _, log4, _ = batch_log ~k:4 n in
  let keys log = List.map Audit.content_key (Audit.Log.records log) |> List.sort compare in
  Alcotest.(check bool) "content multisets equal" true (keys log1 = keys log4);
  let misses log =
    List.length (List.filter (fun r -> r.Audit.cache = Audit.Miss) (Audit.Log.records log))
  in
  (* 3 distinct (source, policy) pairs in the mix *)
  Alcotest.(check int) "k=1 misses" 3 (misses log1);
  Alcotest.(check int) "k=4 misses" 3 (misses log4);
  List.iter
    (fun (r : Audit.record) ->
      match r.Audit.verdict with
      | Audit.Accepted _ ->
        Alcotest.(check bool) "accepted is ok/abort" true
          (String.length r.Audit.measurement = 64)
      | Audit.Rejected rej ->
        Alcotest.(check string) "rejection preserves the pass" "scan"
          (Verifier.pass_label rej.Verifier.pass))
    (Audit.Log.records log4)

let test_session_standalone_audit () =
  (* a lone session (no gateway) still leaves evidence: one Uncached
     record on lane 0, and the sealed log verifies *)
  let plat = platform () in
  let log = Audit.Log.create ~platform:plat () in
  let outcome =
    Session.run ~audit:{ Audit.log; lane = 0 } ~source:compliant_src ~inputs:[] ()
  in
  (match outcome with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "session failed: %s" (Session.error_to_string e));
  match Audit.Log.records log with
  | [ r ] ->
    Alcotest.(check int) "lane 0" 0 r.Audit.lane;
    Alcotest.(check bool) "uncached" true (r.Audit.cache = Audit.Uncached);
    (match r.Audit.verdict with
    | Audit.Accepted _ -> ()
    | Audit.Rejected _ -> Alcotest.fail "expected an acceptance");
    ignore (check_ok "standalone" plat (Audit.Log.seal log))
  | rs -> Alcotest.failf "expected 1 record, found %d" (List.length rs)

let suite =
  [
    Alcotest.test_case "seal/verify round trip" `Quick test_seal_verify_roundtrip;
    Alcotest.test_case "text round trip" `Quick test_text_roundtrip;
    Alcotest.test_case "seal is non-destructive" `Quick test_seal_is_nondestructive;
    Alcotest.test_case "k=4 head binds the quote" `Quick test_batch_head_binds_quote;
    Alcotest.test_case "content multiset schedule-independent" `Quick
      test_content_multiset_schedule_independent;
    Alcotest.test_case "standalone session audit" `Quick test_session_standalone_audit;
  ]
  @ Suite_sealed_log.cases ~audit:true
