(* json_check: smoke gate for machine-readable outputs.

     json_check FILE            parse FILE as strict JSON, exit 1 on failure
     json_check --bench FILE    additionally enforce the deflection-bench/1
                                schema: schema/generated_unix/quick fields and
                                a non-empty "sections" object whose every
                                section is itself non-empty
     json_check --chaos FILE    additionally enforce the deflection-chaos/1
                                schema: seeds/passed/failed bookkeeping must
                                be consistent, every case must carry a
                                replayable plan, and "violations" must be 0
     json_check --fuzz FILE     additionally enforce the deflection-fuzz/1
                                schema: every generated program clean, every
                                mutant rejected or ran clean, both harness
                                self-tests caught, zero failures
     json_check --gateway FILE  additionally enforce the deflection-gateway/1
                                schema: one result per session, consistent
                                verdict-cache accounting (hits + misses =
                                sessions when warm), and a timing object
                                whose latency_ns percentile block is
                                well-formed (monotone p50<=p90<=p95<=p99,
                                one "session" sample per session)
     json_check --audit FILE    additionally enforce the deflection-audit/2
                                schema: hex-encoded digests everywhere,
                                records inside non-empty segments of at
                                most segment_records, contiguous sequence
                                numbers across segments, a last segment
                                head equal to the document head, and a
                                quote whose report data is the chain head
                                (structural only — the cryptographic
                                re-walk needs the sealing platform and
                                lives in `deflectionc audit
                                verify`)
     json_check --server FILE   additionally enforce the deflection-server/1
                                schema: every offer accounted for exactly
                                once (admitted + shed + rejected + queued ==
                                offered, per tenant and globally), per-tenant
                                cache entries within quota, exit histograms
                                that sum to the admitted counts, a coherent
                                recovery report and monotone latency ladders

   Used by `make check` to fail the build when the benchmark harness
   produced no (or malformed) bench/results/latest.json, and by the chaos
   smoke job to fail CI on a malformed or fail-open campaign report. *)

module Json = Deflection_telemetry.Json

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let die fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let check_bench path json =
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-bench/1") -> ()
  | Some (Json.Str other) -> die "%s: unknown schema %S" path other
  | _ -> die "%s: missing \"schema\" field" path);
  (match Json.member "generated_unix" json with
  | Some (Json.Int _ | Json.Float _) -> ()
  | _ -> die "%s: missing numeric \"generated_unix\" field" path);
  (match Json.member "quick" json with
  | Some (Json.Bool _) -> ()
  | _ -> die "%s: missing boolean \"quick\" field" path);
  match Json.member "sections" json with
  | Some (Json.Obj []) -> die "%s: \"sections\" is empty — no benchmark recorded results" path
  | Some (Json.Obj sections) ->
    List.iter
      (fun (name, body) ->
        match body with
        | Json.Obj [] | Json.List [] -> die "%s: section %S is empty" path name
        | Json.Obj _ | Json.List _ -> ()
        | _ -> die "%s: section %S is not an object or array" path name)
      sections;
    Printf.printf "%s: ok (%d sections: %s)\n" path (List.length sections)
      (String.concat ", " (List.map fst sections))
  | _ -> die "%s: missing \"sections\" object" path

let int_field path json name =
  match Json.member name json with
  | Some (Json.Int n) -> n
  | _ -> die "%s: missing integer %S field" path name

let check_chaos path json =
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-chaos/1") -> ()
  | Some (Json.Str other) -> die "%s: unknown schema %S" path other
  | _ -> die "%s: missing \"schema\" field" path);
  (match Json.member "base_seed" json with
  | Some (Json.Str s) when Int64.of_string_opt s <> None -> ()
  | _ -> die "%s: missing int64-string \"base_seed\" field" path);
  let seeds = int_field path json "seeds" in
  let passed = int_field path json "passed" in
  let failed = int_field path json "failed" in
  let violations = int_field path json "violations" in
  if seeds <= 0 then die "%s: campaign ran no plans" path;
  if passed + failed <> seeds then
    die "%s: passed (%d) + failed (%d) != seeds (%d)" path passed failed seeds;
  (match Json.member "fault_histogram" json with
  | Some (Json.Obj ((_ :: _) as sites)) ->
    List.iter
      (fun (site, v) ->
        match v with Json.Int _ -> () | _ -> die "%s: histogram site %S not an int" path site)
      sites
  | _ -> die "%s: missing non-empty \"fault_histogram\" object" path);
  (match Json.member "cases" json with
  | Some (Json.List cases) ->
    if List.length cases <> seeds then
      die "%s: %d cases but \"seeds\" says %d" path (List.length cases) seeds;
    List.iteri
      (fun i case ->
        (match Json.member "seed" case with
        | Some (Json.Str s) when Int64.of_string_opt s <> None -> ()
        | _ -> die "%s: case %d: missing int64-string \"seed\"" path i);
        (match Json.member "plan" case with
        | Some (Json.Obj _) -> ()
        | _ -> die "%s: case %d: missing replayable \"plan\" object" path i);
        match Json.member "pass" case with
        | Some (Json.Bool _) -> ()
        | _ -> die "%s: case %d: missing boolean \"pass\"" path i)
      cases
  | _ -> die "%s: missing \"cases\" array" path);
  if violations > 0 then
    die "%s: %d fail-closed violation(s) — the campaign is fail-open" path violations;
  Printf.printf "%s: ok (%d plans, %d passed, 0 violations)\n" path seeds passed

let check_fuzz path json =
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-fuzz/1") -> ()
  | Some (Json.Str other) -> die "%s: unknown schema %S" path other
  | _ -> die "%s: missing \"schema\" field" path);
  (match Json.member "base_seed" json with
  | Some (Json.Str s) when Int64.of_string_opt s <> None -> ()
  | _ -> die "%s: missing int64-string \"base_seed\" field" path);
  let programs = int_field path json "programs" in
  let mutants = int_field path json "mutants" in
  let programs_clean = int_field path json "programs_clean" in
  let mutants_rejected = int_field path json "mutants_rejected" in
  let mutants_clean = int_field path json "mutants_clean" in
  let failure_count = int_field path json "failure_count" in
  if programs <= 0 then die "%s: campaign generated no programs" path;
  if mutants <= 0 then die "%s: campaign ran no mutants" path;
  if programs_clean <> programs then
    die "%s: %d of %d generated programs failed an oracle (false positive or divergence)"
      path (programs - programs_clean) programs;
  if mutants_rejected + mutants_clean <> mutants then
    die "%s: rejected (%d) + ran-clean (%d) != mutants (%d) — some mutant broke an oracle"
      path mutants_rejected mutants_clean mutants;
  (match Json.member "selftest_rejection_caught" json with
  | Some (Json.Bool true) -> ()
  | _ -> die "%s: the planted known-bad mutant was not rejected — the oracle is blind" path);
  (match Json.member "selftest_monitor_caught" json with
  | Some (Json.Bool true) -> ()
  | _ -> die "%s: the planted raw store was not flagged — the runtime monitor is blind" path);
  (* witness-mutant accounting, present when the campaign also doctored
     witnesses (deflectionc fuzz --witness-mutants N) *)
  (match Json.member "witness_mutants" json with
  | Some (Json.Int wm) when wm > 0 ->
    let wr = int_field path json "wmutants_rejected" in
    let wc = int_field path json "wmutants_clean" in
    if wr + wc <> wm then
      die "%s: wmutants_rejected (%d) + wmutants_clean (%d) != witness_mutants (%d)" path wr
        wc wm;
    (match Json.member "selftest_witness_caught" json with
    | Some (Json.Bool true) -> ()
    | _ -> die "%s: the planted doctored witness was not rejected — the witness oracle is blind" path)
  | Some (Json.Int _) | None -> ()
  | Some _ -> die "%s: \"witness_mutants\" is not an integer" path);
  (match Json.member "failures" json with
  | Some (Json.List l) ->
    if List.length l <> failure_count then
      die "%s: %d failure records but \"failure_count\" says %d" path (List.length l)
        failure_count
  | _ -> die "%s: missing \"failures\" array" path);
  if failure_count > 0 then die "%s: %d unshrunk oracle failure(s)" path failure_count;
  Printf.printf "%s: ok (%d programs clean, %d mutants: %d rejected / %d ran clean)\n" path
    programs mutants mutants_rejected mutants_clean

let check_gateway path json =
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-gateway/1") -> ()
  | Some (Json.Str other) -> die "%s: unknown schema %S" path other
  | _ -> die "%s: missing \"schema\" field" path);
  let sessions = int_field path json "sessions" in
  if sessions <= 0 then die "%s: batch served no sessions" path;
  let warm =
    match Json.member "warm" json with
    | Some (Json.Bool b) -> b
    | _ -> die "%s: missing boolean \"warm\" field" path
  in
  let cache_counts =
    match (warm, Json.member "cache" json) with
    | true, Some (Json.Obj _ as cache) ->
      let hits = int_field path cache "hits" in
      let misses = int_field path cache "misses" in
      let entries = int_field path cache "entries" in
      let capacity = int_field path cache "capacity" in
      if hits + misses <> sessions then
        die "%s: cache hits (%d) + misses (%d) != sessions (%d)" path hits misses sessions;
      if entries > capacity then
        die "%s: cache holds %d settled entries over its capacity %d" path entries capacity;
      Some (hits, misses)
    | true, _ -> die "%s: warm batch without a \"cache\" object" path
    | false, (Some Json.Null | None) -> None
    | false, Some _ -> die "%s: cold batch carries a non-null \"cache\"" path
  in
  let exit_codes =
    match Json.member "results" json with
    | Some (Json.List results) ->
      if List.length results <> sessions then
        die "%s: %d results but \"sessions\" says %d" path (List.length results) sessions;
      List.mapi
        (fun i r ->
          (match Json.member "label" r with
          | Some (Json.Str _) -> ()
          | _ -> die "%s: result %d: missing string \"label\"" path i);
          (match Json.member "status" r with
          | Some (Json.Str ("ok" | "error")) -> ()
          | _ -> die "%s: result %d: \"status\" is not \"ok\"/\"error\"" path i);
          int_field path r "exit_code")
        results
    | _ -> die "%s: missing \"results\" array" path
  in
  let families =
    match Json.member "timing" json with
    | Some (Json.Obj _ as timing) -> (
      ignore (int_field path timing "jobs");
      match Json.member "latency_ns" timing with
      | Some (Json.Obj ((_ :: _) as families)) -> families
      | Some (Json.Obj []) -> die "%s: \"latency_ns\" percentile block is empty" path
      | _ -> die "%s: timing lacks the \"latency_ns\" percentile block" path)
    | _ -> die "%s: missing \"timing\" object" path
  in
  (* the percentile block is schedule-variant (that's why it lives inside
     "timing"), but its shape is not: every family must carry a monotone
     quantile ladder, and the "session" family must have exactly one
     sample per served session. *)
  List.iter
    (fun (fam, body) ->
      let q name = int_field path body name in
      let count = q "count" in
      if count <= 0 then die "%s: latency family %S is empty" path fam;
      let p50 = q "p50" and p90 = q "p90" and p95 = q "p95" and p99 = q "p99" in
      let minv = q "min" and maxv = q "max" in
      if not (minv <= p50 && p50 <= p90 && p90 <= p95 && p95 <= p99 && p99 <= maxv) then
        die "%s: latency family %S has a non-monotone quantile ladder" path fam)
    families;
  (match List.assoc_opt "session" families with
  | None -> die "%s: no \"session\" latency family — per-session spans were not recorded" path
  | Some body ->
    let count = int_field path body "count" in
    if count <> sessions then
      die "%s: \"session\" latency family has %d samples but %d sessions ran" path count
        sessions);
  (* cross-check the merged per-stage sample counts against the session
     totals: the merge at worker join must neither drop nor double-count
     a session's contribution, whatever the fan-out was. *)
  let fam_count name =
    match List.assoc_opt name families with
    | None -> 0
    | Some body -> int_field path body "count"
  in
  let executed = List.length (List.filter (fun c -> c = 0 || c = 9 || c = 11) exit_codes) in
  if fam_count "execute" <> executed then
    die "%s: \"execute\" family has %d samples but %d session(s) reached execution" path
      (fam_count "execute") executed;
  (match cache_counts with
  | Some (hits, misses) ->
    if fam_count "session.cache_hit" <> hits then
      die "%s: \"session.cache_hit\" family has %d samples but the cache reports %d hits"
        path
        (fam_count "session.cache_hit")
        hits;
    if fam_count "session.cache_miss" <> misses then
      die "%s: \"session.cache_miss\" family has %d samples but the cache reports %d misses"
        path
        (fam_count "session.cache_miss")
        misses;
    if fam_count "verify" <> misses then
      die "%s: \"verify\" family has %d samples but only the %d cache miss(es) run a pass"
        path (fam_count "verify") misses
  | None ->
    (* cold: every session that got past compile and attestation runs its
       own verifier pass *)
    let expected =
      List.length (List.filter (fun c -> c <> 3 && c <> 4 && c <> 10) exit_codes)
    in
    if fam_count "verify" <> expected then
      die "%s: \"verify\" family has %d samples but %d cold session(s) reached the verifier"
        path (fam_count "verify") expected);
  Printf.printf "%s: ok (%d sessions, %s, %d latency families)\n" path sessions
    (if warm then "warm cache" else "cold")
    (List.length families)

let str_field path json name =
  match Json.member name json with
  | Some (Json.Str s) -> s
  | _ -> die "%s: missing string %S field" path name

let hex_field ?len path json name =
  let s = str_field path json name in
  let len_ok = match len with Some n -> String.length s = n | None -> String.length s > 0 in
  if
    (not len_ok)
    || not (String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s)
  then die "%s: field %S is not lowercase hex%s" path name
      (match len with Some n -> Printf.sprintf " of %d chars" n | None -> "");
  s

let check_audit path json =
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-audit/2") -> ()
  | Some (Json.Str other) -> die "%s: unknown schema %S" path other
  | _ -> die "%s: missing \"schema\" field" path);
  ignore (int_field path json "generation");
  ignore (hex_field ~len:64 path json "genesis");
  let head = hex_field ~len:64 path json "head" in
  ignore (hex_field ~len:64 path json "final_mac");
  let segment_records = int_field path json "segment_records" in
  if segment_records <= 0 then die "%s: non-positive \"segment_records\"" path;
  let check_record i r =
    if int_field path r "seq" <> i then
      die "%s: record %d carries seq %d — not an untouched append order" path i
        (int_field path r "seq");
    ignore (hex_field ~len:64 path r "measurement");
    if str_field path r "policies" = "" then die "%s: record %d: empty policy-set label" path i;
    ignore (int_field path r "ssa_q");
    ignore (int_field path r "lane");
    (match Json.member "cache" r with
    | Some (Json.Str ("hit" | "miss" | "uncached")) -> ()
    | _ -> die "%s: record %d: \"cache\" is not hit/miss/uncached" path i);
    match Json.member "verdict" r with
    | Some (Json.Obj _ as v) -> (
      match Json.member "status" v with
      | Some (Json.Str "accepted") -> ignore (int_field path v "instructions_checked")
      | Some (Json.Str "rejected") ->
        ignore (str_field path v "pass");
        ignore (int_field path v "offset");
        ignore (str_field path v "reason")
      | _ -> die "%s: record %d: verdict status is not accepted/rejected" path i)
    | _ -> die "%s: record %d: missing \"verdict\" object" path i
  in
  let segments =
    match Json.member "segments" json with
    | Some (Json.List []) -> die "%s: audit log holds no records" path
    | Some (Json.List segments) -> segments
    | _ -> die "%s: missing \"segments\" array" path
  in
  (* records live inside their segments: seq numbers run on across them *)
  let n_records =
    List.fold_left
      (fun next (i, s) ->
        if int_field path s "index" <> i then
          die "%s: segment %d carries index %d" path i (int_field path s "index");
        ignore (hex_field ~len:64 path s "head");
        ignore (hex_field ~len:64 path s "mac");
        match Json.member "entries" s with
        | Some (Json.List records) ->
          let n = List.length records in
          if n = 0 || n > segment_records then
            die "%s: segment %d holds %d record(s), not 1..%d" path i n segment_records;
          List.iteri (fun k r -> check_record (next + k) r) records;
          next + n
        | _ -> die "%s: segment %d has no \"entries\" array" path i)
      0
      (List.mapi (fun i s -> (i, s)) segments)
  in
  (* the last segment closes at the last record, so its head is the log's
     head *)
  if str_field path (List.nth segments (List.length segments - 1)) "head" <> head then
    die "%s: final segment head disagrees with the document head" path;
  (match Json.member "quote" json with
  | Some (Json.Obj _ as q) ->
    ignore (hex_field ~len:64 path q "measurement");
    if hex_field ~len:64 path q "report_data" <> head then
      die "%s: quote report data is not the chain head — the binding is broken" path;
    ignore (hex_field path q "signature")
  | _ -> die "%s: missing \"quote\" object" path);
  Printf.printf "%s: ok (%d records, head %s..., quote bound)\n" path n_records
    (String.sub head 0 12)

let check_server path json =
  (match Json.member "schema" json with
  | Some (Json.Str "deflection-server/1") -> ()
  | Some (Json.Str other) -> die "%s: unknown schema %S" path other
  | _ -> die "%s: missing \"schema\" field" path);
  let offered = int_field path json "offered" in
  let admitted = int_field path json "admitted" in
  let shed = int_field path json "shed" in
  let rejected = int_field path json "rejected" in
  let queue_depth = int_field path json "queue_depth" in
  if offered <= 0 then die "%s: server was offered no sessions" path;
  (* every offer is accounted for exactly once: admitted, typed-shed,
     rejected (unknown tenant), or still queued at report time *)
  if admitted + shed + rejected + queue_depth <> offered then
    die "%s: admitted (%d) + shed (%d) + rejected (%d) + queued (%d) != offered (%d)" path
      admitted shed rejected queue_depth offered;
  let warm_hits = int_field path json "warm_hits" in
  let cold_misses = int_field path json "cold_misses" in
  if warm_hits + cold_misses <> admitted then
    die "%s: warm hits (%d) + cold misses (%d) != admitted (%d) — a session dodged its \
         tenant's cache" path warm_hits cold_misses admitted;
  let exits_total body what expect =
    match Json.member "exits" body with
    | Some (Json.Obj codes) ->
      let total =
        List.fold_left
          (fun acc (code, v) ->
            (match int_of_string_opt code with
            | Some _ -> ()
            | None -> die "%s: %s: exit histogram key %S is not a code" path what code);
            match v with
            | Json.Int n when n >= 0 -> acc + n
            | _ -> die "%s: %s: exit histogram value for %S is not a count" path what code)
          0 codes
      in
      if total <> expect then
        die "%s: %s: exit histogram sums to %d but %d session(s) were admitted" path what
          total expect
    | _ -> die "%s: %s: missing \"exits\" object" path what
  in
  exits_total json "server" admitted;
  let ladder fam body =
    let q name = int_field path body name in
    let count = q "count" in
    let p50 = q "p50" and p90 = q "p90" and p95 = q "p95" and p99 = q "p99" in
    let minv = q "min" and maxv = q "max" in
    if count > 0 && not (minv <= p50 && p50 <= p90 && p90 <= p95 && p95 <= p99 && p99 <= maxv)
    then die "%s: latency family %S has a non-monotone quantile ladder" path fam;
    count
  in
  (match Json.member "queue_wait_rounds" json with
  | Some (Json.Obj _ as body) ->
    if ladder "queue_wait_rounds" body <> admitted then
      die "%s: queue-wait histogram has %d samples but %d session(s) were admitted" path
        (ladder "queue_wait_rounds" body) admitted
  | _ -> die "%s: missing \"queue_wait_rounds\" histogram" path);
  (* per-tenant accounting must tile the global totals, and no tenant's
     settled cache may exceed its entry quota *)
  (match Json.member "tenants" json with
  | Some (Json.List ((_ :: _) as tenants)) ->
    let sum_offered = ref 0 and sum_admitted = ref 0 and sum_shed = ref 0 in
    List.iter
      (fun t ->
        let name = str_field path t "name" in
        let t_offered = int_field path t "offered" in
        let t_admitted = int_field path t "admitted" in
        let t_shed = int_field path t "shed" in
        if t_admitted + t_shed > t_offered then
          die "%s: tenant %S: admitted (%d) + shed (%d) > offered (%d)" path name t_admitted
            t_shed t_offered;
        sum_offered := !sum_offered + t_offered;
        sum_admitted := !sum_admitted + t_admitted;
        sum_shed := !sum_shed + t_shed;
        exits_total t (Printf.sprintf "tenant %S" name) t_admitted;
        match Json.member "cache" t with
        | Some (Json.Obj _ as cache) ->
          let entries = int_field path cache "entries" in
          let quota = int_field path cache "quota_max_entries" in
          if entries > quota then
            die "%s: tenant %S holds %d cache entries over its quota of %d" path name entries
              quota
        | _ -> die "%s: tenant %S: missing \"cache\" object" path name)
      tenants;
    (* global rejected counts only unknown-tenant offers, which belong to
       no tenant row *)
    if !sum_offered + rejected <> offered then
      die "%s: tenant offered (%d) + rejected (%d) != offered (%d)" path !sum_offered
        rejected offered;
    if !sum_admitted <> admitted then
      die "%s: tenant admitted sums to %d but the server says %d" path !sum_admitted admitted;
    if !sum_shed <> shed then
      die "%s: tenant shed sums to %d but the server says %d" path !sum_shed shed
  | _ -> die "%s: missing non-empty \"tenants\" array" path);
  (* recovery, when present, must be internally consistent *)
  (match Json.member "recovery" json with
  | Some Json.Null | None -> ()
  | Some (Json.Obj _ as r) ->
    let loaded = int_field path r "entries_loaded" in
    let discarded = int_field path r "segments_discarded" in
    (match Json.member "segments" r with
    | Some (Json.List segs) ->
      let sum_loaded = ref 0 and bad = ref 0 in
      List.iter
        (fun s ->
          match Json.member "status" s with
          | Some (Json.Str "loaded") -> sum_loaded := !sum_loaded + int_field path s "entries"
          | Some (Json.Str ("bad-mac" | "malformed")) -> incr bad
          | _ -> die "%s: recovery segment without a recognised \"status\"" path)
        segs;
      if !sum_loaded <> loaded then
        die "%s: recovery segments carry %d entries but \"entries_loaded\" says %d" path
          !sum_loaded loaded;
      if !bad <> discarded then
        die "%s: %d bad recovery segment(s) but \"segments_discarded\" says %d" path !bad
          discarded
    | _ -> die "%s: recovery report lacks its \"segments\" array" path)
  | Some _ -> die "%s: \"recovery\" is neither null nor an object" path);
  (* timing is schedule-variant but shape-checked *)
  (match Json.member "timing" json with
  | Some (Json.Obj _ as timing) -> (
    ignore (int_field path timing "workers");
    match Json.member "latency_ns" timing with
    | Some (Json.Obj families) ->
      List.iter (fun (fam, body) -> ignore (ladder fam body)) families;
      if admitted > 0 && not (List.mem_assoc "session" families) then
        die "%s: sessions ran but no \"session\" latency family was recorded" path
    | _ -> die "%s: timing lacks the \"latency_ns\" block" path)
  | _ -> die "%s: missing \"timing\" object" path);
  Printf.printf "%s: ok (%d offered: %d admitted / %d shed / %d rejected, warm ratio %.2f)\n"
    path offered admitted shed rejected
    (if admitted > 0 then float_of_int warm_hits /. float_of_int admitted else 0.)

let () =
  let mode, path =
    match Array.to_list Sys.argv with
    | [ _; "--bench"; path ] -> (`Bench, path)
    | [ _; "--chaos"; path ] -> (`Chaos, path)
    | [ _; "--fuzz"; path ] -> (`Fuzz, path)
    | [ _; "--gateway"; path ] -> (`Gateway, path)
    | [ _; "--audit"; path ] -> (`Audit, path)
    | [ _; "--server"; path ] -> (`Server, path)
    | [ _; path ] -> (`Plain, path)
    | _ ->
      die "usage: json_check [--bench|--chaos|--fuzz|--gateway|--audit|--server] FILE"
  in
  let contents = try read_file path with Sys_error e -> die "%s" e in
  match Json.parse contents with
  | Error e -> die "%s: invalid JSON: %s" path e
  | Ok json -> (
    match mode with
    | `Bench -> check_bench path json
    | `Chaos -> check_chaos path json
    | `Fuzz -> check_fuzz path json
    | `Gateway -> check_gateway path json
    | `Audit -> check_audit path json
    | `Server -> check_server path json
    | `Plain -> Printf.printf "%s: ok\n" path)
