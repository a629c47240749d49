(* The persistent multi-tenant gateway server: single-flight poison
   recovery (the regression this PR pins), epoch-LRU trim determinism and
   namespace isolation, typed overload shedding, K=1 vs K=4 byte-identical
   reports, sealed-cache crash recovery and the seeded chaos campaign.
   The per-tamper-class degradation of the persisted verdict cache is the
   cache half of the tamper table in [Suite_sealed_log]. *)

module Server = Deflection_server.Server
module Persist = Deflection_server.Persist
module Verifier = Deflection_verifier.Verifier
module Verdict_cache = Deflection_gateway.Verdict_cache
module Policy = Deflection_policy.Policy
module Attestation = Deflection_attestation.Attestation
module Json = Deflection_telemetry.Json

let ok_verdict n =
  Ok
    ( {
        Verifier.instructions_checked = n;
        store_annotations = 0;
        rsp_annotations = 0;
        cfi_annotations = 0;
        prologues = 1;
        epilogues = 1;
        ssa_checks = 0;
      },
      Verifier.classification_of_leaders [] )

let temp_dir = Suite_sealed_log.temp_dir

(* ------------------------------------------------------------------ *)
(* single-flight poison recovery *)

exception Boom

let test_poisoned_slot_retryable () =
  (* a verification that crashes must not wedge its key: the claim is
     dropped, and the next delivery of the same binary verifies fresh *)
  let cache = Verdict_cache.create () in
  let key = "poison" in
  (try
     ignore (Verdict_cache.lookup cache ~key ~verify:(fun () -> raise Boom));
     Alcotest.fail "the crashing verify should have raised"
   with Boom -> ());
  let verdict, outcome =
    Verdict_cache.lookup cache ~key ~verify:(fun () -> ok_verdict 7)
  in
  (match outcome with
  | `Miss -> ()
  | `Hit -> Alcotest.fail "retry after a crash must be a fresh miss, not a hit");
  (match verdict with
  | Ok (r, _) -> Alcotest.(check int) "retried verdict" 7 r.Verifier.instructions_checked
  | Error _ -> Alcotest.fail "retry produced a rejection");
  let s = Verdict_cache.stats cache in
  Alcotest.(check int) "entries" 1 s.Verdict_cache.entries;
  (* and the settled verdict now serves hits *)
  let _, outcome = Verdict_cache.lookup cache ~key ~verify:(fun () -> assert false) in
  match outcome with `Hit -> () | `Miss -> Alcotest.fail "settled verdict did not serve a hit"

let test_poisoned_slot_waiters_recover () =
  (* concurrent waiters blocked on a claim whose verify crashes must wake
     and re-verify instead of inheriting the crash *)
  let cache = Verdict_cache.create () in
  let key = "poison-concurrent" in
  let gate = Atomic.make false in
  let crasher =
    Domain.spawn (fun () ->
        try
          ignore
            (Verdict_cache.lookup cache ~key
               ~verify:(fun () ->
                 Atomic.set gate true;
                 Unix.sleepf 0.05;
                 raise Boom));
          false
        with Boom -> true)
  in
  while not (Atomic.get gate) do
    Domain.cpu_relax ()
  done;
  (* the claim is in flight and doomed; this lookup blocks on it *)
  let waiter =
    Domain.spawn (fun () ->
        Verdict_cache.lookup cache ~key ~verify:(fun () -> ok_verdict 11))
  in
  Alcotest.(check bool) "crasher observed its own exception" true (Domain.join crasher);
  let verdict, outcome = Domain.join waiter in
  (match outcome with
  | `Miss -> ()
  | `Hit -> Alcotest.fail "waiter must convert to a fresh miss after the crash");
  match verdict with
  | Ok (r, _) -> Alcotest.(check int) "waiter verdict" 11 r.Verifier.instructions_checked
  | Error _ -> Alcotest.fail "waiter produced a rejection"

let test_inflight_survives_eviction () =
  (* a trim that runs while a claim is in flight may only take settled
     verdicts: the claim survives even a trim to zero *)
  let cache = Verdict_cache.create () in
  let key = "inflight" in
  let verdict, _ =
    Verdict_cache.lookup cache ~key ~verify:(fun () ->
        (* while `key` is in flight, settle other keys and trim them all *)
        for i = 0 to 4 do
          ignore
            (Verdict_cache.lookup cache
               ~key:(Printf.sprintf "filler-%d" i)
               ~verify:(fun () -> ok_verdict i))
        done;
        Alcotest.(check int) "every settled entry evicted" 5 (Verdict_cache.trim cache ~capacity:0);
        ok_verdict 99)
  in
  (match verdict with
  | Ok (r, _) -> Alcotest.(check int) "in-flight verdict" 99 r.Verifier.instructions_checked
  | Error _ -> Alcotest.fail "in-flight verification was lost");
  (* the just-settled key must still be present: it was never a victim *)
  let _, outcome = Verdict_cache.lookup cache ~key ~verify:(fun () -> assert false) in
  (match outcome with
  | `Hit -> ()
  | `Miss -> Alcotest.fail "the in-flight entry was evicted while unsettled");
  let s = Verdict_cache.stats cache in
  Alcotest.(check int) "evictions" 5 s.Verdict_cache.evictions;
  Alcotest.(check int) "entries" 1 s.Verdict_cache.entries

(* ------------------------------------------------------------------ *)
(* epoch-LRU trim: determinism and namespace isolation *)

let test_trim_epoch_lru () =
  let cache = Verdict_cache.create () in
  let insert epoch name =
    Verdict_cache.set_epoch cache epoch;
    ignore (Verdict_cache.lookup cache ~key:name ~verify:(fun () -> ok_verdict 1))
  in
  insert 1 "a";
  insert 1 "b";
  insert 2 "c";
  insert 3 "d";
  (* trim to 2: the epoch-1 entries go first (ties on key bytes), then
     nothing — c and d survive *)
  Alcotest.(check int) "evicted" 2 (Verdict_cache.trim cache ~capacity:2);
  let hit name =
    Verdict_cache.set_epoch cache 9;
    let _, o = Verdict_cache.lookup cache ~key:name ~verify:(fun () -> ok_verdict 0) in
    o = `Hit
  in
  Alcotest.(check bool) "c survived" true (hit "c");
  Alcotest.(check bool) "d survived" true (hit "d");
  Alcotest.(check bool) "a trimmed" false (hit "a");
  Alcotest.(check bool) "b trimmed" false (hit "b")

let test_trim_is_per_namespace () =
  (* one cache per tenant: trimming one namespace to its quota must not
     touch the other's entries *)
  let t0 = Verdict_cache.create () in
  let t1 = Verdict_cache.create () in
  List.iter
    (fun cache ->
      Verdict_cache.set_epoch cache 1;
      for i = 0 to 5 do
        ignore
          (Verdict_cache.lookup cache
             ~key:(Printf.sprintf "e%d" i)
             ~verify:(fun () -> ok_verdict i))
      done)
    [ t0; t1 ];
  Alcotest.(check int) "t0 trimmed to quota" 4 (Verdict_cache.trim t0 ~capacity:2);
  Alcotest.(check int) "t0 entries" 2 (Verdict_cache.stats t0).Verdict_cache.entries;
  Alcotest.(check int) "t1 untouched" 6 (Verdict_cache.stats t1).Verdict_cache.entries;
  Alcotest.(check int) "t1 saw no evictions" 0 (Verdict_cache.stats t1).Verdict_cache.evictions

(* ------------------------------------------------------------------ *)
(* server behaviour *)

let small_cfg ?(state_dir = None) ?(workers = 1) () =
  {
    Server.default_config with
    Server.tenants =
      [
        { Server.t_name = "t0"; t_quota = { Server.default_quota with Server.max_entries = 4 } };
        { Server.t_name = "t1"; t_quota = { Server.default_quota with Server.max_entries = 4 } };
        { Server.t_name = "t2"; t_quota = { Server.default_quota with Server.max_inflight = 2 } };
        { Server.t_name = "t3"; t_quota = { Server.default_quota with Server.fuel = Some 5 } };
      ];
    queue_capacity = 24;
    batch_size = 6;
    workers;
    seed = 11L;
    state_dir;
    persist_every = 1;
    segment_entries = 3;
  }

let test_overload_typed_shedding () =
  let cfg = { (small_cfg ()) with Server.queue_capacity = 4 } in
  let server = Server.create cfg in
  let job i = Server.Gateway.job ~label:(Printf.sprintf "t0-r0-i%d-ok0" i) ~seed:(Int64.of_int i)
      "int main() { return 0; }" in
  let outcomes = List.init 10 (fun i -> Server.offer server ~tenant:"t0" (job i)) in
  let queued = List.length (List.filter (( = ) `Queued) outcomes) in
  Alcotest.(check int) "queue filled to capacity" 4 queued;
  (match List.nth outcomes 9 with
  | `Rejected (Server.Overloaded { retry_after_rounds }) ->
    Alcotest.(check bool) "retry hint positive" true (retry_after_rounds > 0)
  | _ -> Alcotest.fail "over-capacity offer was not a typed Overloaded rejection");
  (match Server.offer server ~tenant:"nobody" (job 99) with
  | `Rejected Server.Unknown_tenant -> ()
  | _ -> Alcotest.fail "unknown tenant was not rejected");
  (* accounting: 11 offered = 4 queued + 6 shed + 1 unknown-tenant *)
  let d = Server.doc server in
  let geti k = match Json.member k d with Some (Json.Int n) -> n | _ -> -1 in
  Alcotest.(check int) "offered" 11 (geti "offered");
  Alcotest.(check int) "shed" 6 (geti "shed");
  Alcotest.(check int) "rejected" 1 (geti "rejected");
  Alcotest.(check int) "queued" 4 (geti "queue_depth")

let strip_timing = function
  | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "timing") kvs)
  | j -> j

let test_fanout_equivalence_with_tenants () =
  (* everything outside "timing" — results, per-tenant accounting, cache
     totals, trim victims, shed decisions — is byte-identical at any
     worker count *)
  let run workers =
    let server = Server.create (small_cfg ~workers ()) in
    (match Server.serve_load server ~offered:36 ~rounds:4 ~kill_after:None with
    | `Done -> ()
    | `Killed -> Alcotest.fail "no chaos engine, yet the server died");
    (Json.to_string (strip_timing (Server.doc server)), Server.results server)
  in
  let doc1, res1 = run 1 in
  let doc4, res4 = run 4 in
  Alcotest.(check string) "stripped report identical" doc1 doc4;
  Alcotest.(check (list (pair string int))) "admission record identical" res1 res4;
  (* and the oracle holds on every admitted session *)
  let cfg = small_cfg () in
  List.iter
    (fun (label, code) ->
      match Server.Load.expected_exit cfg label with
      | Some expected -> Alcotest.(check int) label expected code
      | None -> Alcotest.fail (label ^ ": admitted label outside the schedule"))
    res1

let test_fuel_quota_tenant () =
  let server = Server.create (small_cfg ()) in
  (match Server.serve_load server ~offered:24 ~rounds:3 ~kill_after:None with
  | `Done -> ()
  | `Killed -> Alcotest.fail "unexpected kill");
  let t3 = List.filter (fun (l, _) -> String.length l > 2 && String.sub l 0 2 = "t3") (Server.results server) in
  Alcotest.(check bool) "fuel tenant was admitted" true (t3 <> []);
  List.iter
    (fun (label, code) -> Alcotest.(check int) (label ^ " fuel-capped") 11 code)
    t3

let test_restart_serves_warm () =
  let dir = temp_dir "warm" in
  let cfg = small_cfg ~state_dir:(Some dir) () in
  let s1 = Server.create cfg in
  (match Server.serve_load s1 ~offered:30 ~rounds:3 ~kill_after:None with
  | `Done -> ()
  | `Killed -> Alcotest.fail "unexpected kill");
  let d1 = Server.doc s1 in
  let geti d k = match Json.member k d with Some (Json.Int n) -> n | _ -> -1 in
  Alcotest.(check bool) "first run went cold" true (geti d1 "cold_misses" > 0);
  (* restart: same workload replays entirely from the recovered cache *)
  let s2 = Server.create cfg in
  (match Server.recovery s2 with
  | Some r ->
    Alcotest.(check bool) "state found" true r.Persist.found;
    Alcotest.(check int) "nothing discarded" 0 r.Persist.segments_discarded;
    Alcotest.(check bool) "entries preloaded" true (r.Persist.entries_loaded > 0)
  | None -> Alcotest.fail "no recovery report on a persisted server");
  (match Server.serve_load s2 ~offered:30 ~rounds:3 ~kill_after:None with
  | `Done -> ()
  | `Killed -> Alcotest.fail "unexpected kill");
  let d2 = Server.doc s2 in
  Alcotest.(check int) "replay is fully warm" 0 (geti d2 "cold_misses");
  Alcotest.(check int) "admission identical" (geti d1 "admitted") (geti d2 "admitted");
  Alcotest.(check (list (pair string int)))
    "same verdicts warm as cold" (Server.results s1) (Server.results s2)

let test_cross_mode_state_not_warmed () =
  (* entries sealed under one verification mode must not warm a server
     running another: the persisted entries carry their mode label and
     recovery skips foreign ones — cold re-verification, not a verdict
     rendered under a different admission discipline *)
  let dir = temp_dir "xmode" in
  let cfg = small_cfg ~state_dir:(Some dir) () in
  let s1 = Server.create cfg in
  (match Server.serve_load s1 ~offered:30 ~rounds:3 ~kill_after:None with
  | `Done -> ()
  | `Killed -> Alcotest.fail "unexpected kill");
  (* the sealed file records the descent mode on every entry *)
  let platform = Attestation.Platform.create ~seed:cfg.Server.seed in
  let _, entries, report = Persist.recover ~segment_entries:3 ~dir ~platform () in
  Alcotest.(check bool) "state sealed" true (report.Persist.entries_loaded > 0);
  List.iter
    (fun e -> Alcotest.(check string) "entry carries mode" "descent" e.Persist.mode)
    entries;
  (* restart under the witnessed tier: nothing is warmed *)
  let s2 = Server.create { cfg with Server.verification = Verifier.Witnessed } in
  (match Server.serve_load s2 ~offered:30 ~rounds:3 ~kill_after:None with
  | `Done -> ()
  | `Killed -> Alcotest.fail "unexpected kill");
  let geti d k = match Json.member k d with Some (Json.Int n) -> n | _ -> -1 in
  Alcotest.(check bool) "witnessed replay went cold" true
    (geti (Server.doc s2) "cold_misses" > 0);
  (* verdicts are identical across tiers even though the cache was cold *)
  Alcotest.(check (list (pair string int)))
    "same results under both modes" (Server.results s1) (Server.results s2);
  (* a same-mode restart of the witnessed server is warm again *)
  let s3 = Server.create { cfg with Server.verification = Verifier.Witnessed } in
  (match Server.serve_load s3 ~offered:30 ~rounds:3 ~kill_after:None with
  | `Done -> ()
  | `Killed -> Alcotest.fail "unexpected kill");
  Alcotest.(check int) "witnessed replay fully warm" 0 (geti (Server.doc s3) "cold_misses")

(* ------------------------------------------------------------------ *)
(* chaos campaign *)

let test_chaos_campaign_zero_violations () =
  (* seeds 1004-1006 cover kill points, queue storms, load-time tamper
     and a torn seal; zero violations = no fail-open, every tamper class
     degraded to cold, every restart re-served the workload *)
  let state_root = Filename.concat (Filename.get_temp_dir_name ()) "deflection-test-campaign" in
  let c = Server.chaos_campaign ~base_seed:1004L ~seeds:3 ~offered:36 ~state_root () in
  List.iter
    (fun case ->
      List.iter
        (fun v -> Printf.printf "seed %Ld violation: %s\n" case.Server.c_seed v)
        case.Server.c_violations)
    c.Server.cases;
  Alcotest.(check int) "zero violations" 0 c.Server.total_violations;
  let fired = List.fold_left (fun acc (_, n) -> acc + n) 0 c.Server.fired in
  Alcotest.(check bool) "faults actually fired" true (fired > 0)

let test_recovered_verdict_keeps_leaders () =
  (* a verdict sealed by [Persist.save] and read back by [Persist.recover]
     hands the trace tier the leaders the cold verification found *)
  let src = "int main() { print_int(42); return 0; }" in
  let job = Server.Gateway.job ~label:"leaders" ~seed:1L src in
  let leaders cache =
    let batch = Server.Gateway.run_batch ~cache [ job ] in
    Option.value ~default:0 (List.assoc_opt "interp.trace.leaders" batch.Server.Gateway.counters)
  in
  let cold_cache = Verdict_cache.create () in
  let cold = leaders cold_cache in
  Alcotest.(check bool) "the cold batch installs leaders" true (cold > 0);
  let dir = temp_dir "leaders" and platform = Attestation.Platform.create ~seed:7L in
  let p, _, _ = Persist.recover ~dir ~platform () in
  let entry (key, verdict) = { Persist.tenant = "t0"; key; mode = "descent"; verdict } in
  (match Persist.save ~round:0 p (List.map entry (Verdict_cache.export cold_cache)) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save failed: %s" e);
  let _, entries, _ = Persist.recover ~dir ~platform () in
  let warm_cache = Verdict_cache.create () in
  List.iter
    (fun e -> Verdict_cache.preload warm_cache ~key:e.Persist.key e.Persist.verdict)
    entries;
  let warm = leaders warm_cache in
  Alcotest.(check int) "served from the recovered verdict" 1
    (Verdict_cache.stats warm_cache).Verdict_cache.hits;
  Alcotest.(check int) "warm leaders = cold leaders" cold warm

let suite =
  [
    Alcotest.test_case "poisoned slot is retryable" `Quick test_poisoned_slot_retryable;
    Alcotest.test_case "poisoned slot: waiters recover" `Quick test_poisoned_slot_waiters_recover;
    Alcotest.test_case "in-flight entry survives eviction" `Quick test_inflight_survives_eviction;
    Alcotest.test_case "trim is epoch-lru deterministic" `Quick test_trim_epoch_lru;
    Alcotest.test_case "trim is per-namespace" `Quick test_trim_is_per_namespace;
    Alcotest.test_case "overload sheds typed" `Quick test_overload_typed_shedding;
    Alcotest.test_case "k=1 vs k=4 with tenants" `Quick test_fanout_equivalence_with_tenants;
    Alcotest.test_case "fuel quota tenant exits 11" `Quick test_fuel_quota_tenant;
    Alcotest.test_case "restart serves warm" `Quick test_restart_serves_warm;
    Alcotest.test_case "recovered verdict keeps leaders" `Quick
      test_recovered_verdict_keeps_leaders;
    Alcotest.test_case "cross-mode state not warmed" `Quick test_cross_mode_state_not_warmed;
    Alcotest.test_case "chaos campaign: zero violations" `Quick test_chaos_campaign_zero_violations;
  ]
  @ Suite_sealed_log.cases ~audit:false
