module Prng = Deflection_util.Prng
module Policy = Deflection_policy.Policy
module Layout = Deflection_enclave.Layout
module Interp = Deflection_runtime.Interp
module Gateway = Deflection_gateway.Gateway
module Verdict_cache = Deflection_gateway.Verdict_cache
module Verifier = Deflection_verifier.Verifier
module Attestation = Deflection_attestation.Attestation
module Audit = Deflection_audit.Audit
module Chaos = Deflection_chaos.Chaos
module Resilience = Deflection_chaos.Resilience
module Telemetry = Deflection_telemetry.Telemetry
module Hdr = Deflection_telemetry.Hdr
module Json = Deflection_telemetry.Json

type quota = { max_entries : int; max_inflight : int; fuel : int option }

let default_quota = { max_entries = 64; max_inflight = 8; fuel = None }

type tenant_config = { t_name : string; t_quota : quota }

type config = {
  policies : Policy.Set.t;
  ssa_q : int;
  verification : Verifier.mode;
  layout : Layout.config option;
  tenants : tenant_config list;
  queue_capacity : int;
  batch_size : int;
  workers : int;
  seed : int64;
  state_dir : string option;
  persist_every : int;
  segment_entries : int;
  resilience : Resilience.config;
}

let default_config =
  {
    policies = Policy.Set.p1_p6;
    ssa_q = 20;
    verification = Verifier.Descent;
    layout = None;
    tenants =
      [
        { t_name = "t0"; t_quota = default_quota };
        { t_name = "t1"; t_quota = default_quota };
        { t_name = "t2"; t_quota = default_quota };
        { t_name = "t3"; t_quota = { default_quota with fuel = Some 5 } };
      ];
    queue_capacity = 64;
    batch_size = 8;
    workers = 1;
    seed = 7L;
    state_dir = None;
    persist_every = 1;
    segment_entries = 32;
    resilience = Resilience.default_config;
  }

type reject_reason = Overloaded of { retry_after_rounds : int } | Unknown_tenant

let exit_overloaded = 13
let exit_recovery_failure = 14

type tenant_state = {
  tc : tenant_config;
  cache : Verdict_cache.t;
  mutable t_offered : int;
  mutable t_admitted : int;
  mutable t_shed : int;
  mutable t_trim_evictions : int;
  t_exits : (int, int) Hashtbl.t;
}

type t = {
  cfg : config;
  platform : Attestation.Platform.t;
  tenants_tbl : (string, tenant_state) Hashtbl.t;
  audit : Audit.Log.t;
  persist : Persist.t option;
  chaos : Chaos.t;
  mutable recovery_ : Persist.load_report option;
  mutable preloaded : int;
  (* bounded ingress queue: classic two-list FIFO *)
  mutable q_front : (string * Gateway.job * int) list;
  mutable q_back : (string * Gateway.job * int) list;
  mutable q_len : int;
  mutable round_ : int;
  mutable killed_ : bool;
  mutable offered : int;
  mutable admitted : int;
  mutable shed : int;
  mutable rejected : int;
  exits : (int, int) Hashtbl.t;
  wait_rounds : Hdr.t;
  lat : (string, Hdr.t) Hashtbl.t;  (* wall-clock; "timing" block only *)
  mutable results_rev : (string * int) list;
  mutable persist_failures : int;
}

let bump tbl k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let tenant_state t name = Hashtbl.find_opt t.tenants_tbl name

let create ?(chaos = Chaos.disabled) cfg =
  if cfg.tenants = [] then invalid_arg "Server.create: no tenants";
  if cfg.queue_capacity < 1 then invalid_arg "Server.create: queue_capacity must be >= 1";
  if cfg.batch_size < 1 then invalid_arg "Server.create: batch_size must be >= 1";
  let platform = Attestation.Platform.create ~seed:cfg.seed in
  let tenants_tbl = Hashtbl.create 8 in
  List.iter
    (fun tc ->
      if Hashtbl.mem tenants_tbl tc.t_name then
        invalid_arg ("Server.create: duplicate tenant " ^ tc.t_name);
      Hashtbl.replace tenants_tbl tc.t_name
        {
          tc;
          cache = Verdict_cache.create ();
          t_offered = 0;
          t_admitted = 0;
          t_shed = 0;
          t_trim_evictions = 0;
          t_exits = Hashtbl.create 8;
        })
    cfg.tenants;
  let recovered =
    Option.map
      (fun dir -> Persist.recover ~chaos ~segment_entries:cfg.segment_entries ~dir ~platform ())
      cfg.state_dir
  in
  let t =
    {
      cfg;
      platform;
      tenants_tbl;
      audit = Audit.Log.create ~platform ();
      persist = Option.map (fun (p, _, _) -> p) recovered;
      chaos;
      recovery_ = None;
      preloaded = 0;
      q_front = [];
      q_back = [];
      q_len = 0;
      round_ = 0;
      killed_ = false;
      offered = 0;
      admitted = 0;
      shed = 0;
      rejected = 0;
      exits = Hashtbl.create 8;
      wait_rounds = Hdr.create ();
      lat = Hashtbl.create 16;
      results_rev = [];
      persist_failures = 0;
    }
  in
  (match recovered with
  | None -> ()
  | Some (_, entries, report) ->
    (* recovery verified the sealed cache segment by segment; whatever
       failed integrity was discarded (cold re-verification), whatever
       survived goes warm into its tenant's namespace *)
    List.iter
      (fun (e : Persist.entry) ->
        match tenant_state t e.Persist.tenant with
        | None -> ()  (* entry for a tenant this server no longer hosts *)
        | Some _ when e.Persist.mode <> Verifier.mode_label cfg.verification ->
          ()  (* verdict rendered under another verification mode: its key
                 could never be looked up here — cold re-verification *)
        | Some ts ->
          Verdict_cache.preload ts.cache ~key:e.Persist.key e.Persist.verdict;
          t.preloaded <- t.preloaded + 1)
      entries;
    Hashtbl.iter
      (fun _ ts ->
        ignore (Verdict_cache.trim ts.cache ~capacity:ts.tc.t_quota.max_entries))
      t.tenants_tbl;
    t.recovery_ <- Some report);
  t

let config t = t.cfg
let round t = t.round_
let killed t = t.killed_
let recovery t = t.recovery_
let results t = List.rev t.results_rev
let audit_doc t = Audit.Log.seal t.audit

let offer t ~tenant job =
  t.offered <- t.offered + 1;
  match tenant_state t tenant with
  | None ->
    t.rejected <- t.rejected + 1;
    `Rejected Unknown_tenant
  | Some ts ->
    ts.t_offered <- ts.t_offered + 1;
    if t.q_len >= t.cfg.queue_capacity then begin
      t.shed <- t.shed + 1;
      ts.t_shed <- ts.t_shed + 1;
      `Rejected (Overloaded { retry_after_rounds = (t.q_len / t.cfg.batch_size) + 1 })
    end
    else begin
      t.q_back <- (tenant, job, t.round_) :: t.q_back;
      t.q_len <- t.q_len + 1;
      `Queued
    end

let merge_latencies t (batch : Gateway.batch) =
  List.iter
    (fun (name, h) ->
      match Hashtbl.find_opt t.lat name with
      | Some into -> Hdr.merge_into ~into h
      | None ->
        let into = Hdr.create ~sub_bits:(Hdr.sub_bits h) () in
        Hdr.merge_into ~into h;
        Hashtbl.add t.lat name into)
    batch.Gateway.latencies

let persist_now t ~round =
  match t.persist with
  | None -> ()
  | Some p ->
    let entries =
      List.concat_map
        (fun tc ->
          match tenant_state t tc.t_name with
          | None -> []
          | Some ts ->
            List.map
              (fun (key, verdict) ->
                {
                  Persist.tenant = tc.t_name;
                  key;
                  mode = Verifier.mode_label t.cfg.verification;
                  verdict;
                })
              (Verdict_cache.export ts.cache))
        t.cfg.tenants
    in
    (match Persist.save ~chaos:t.chaos ~round p entries with
    | Ok () -> ()
    | Error _ -> t.persist_failures <- t.persist_failures + 1)

let run_round t =
  if t.killed_ then invalid_arg "Server.run_round: server was killed";
  let r = t.round_ in
  Hashtbl.iter (fun _ ts -> Verdict_cache.set_epoch ts.cache (r + 1)) t.tenants_tbl;
  (* Deterministic admission: walk the queue in arrival order, take until
     the batch is full, skip (don't block behind) requests whose tenant
     is at its in-flight quota. *)
  let items = t.q_front @ List.rev t.q_back in
  t.q_front <- [];
  t.q_back <- [];
  let taken : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let sel = ref [] and kept = ref [] and total = ref 0 in
  List.iter
    (fun ((tenant, _, _) as item) ->
      let cnt = Option.value ~default:0 (Hashtbl.find_opt taken tenant) in
      let cap =
        match tenant_state t tenant with
        | Some ts -> ts.tc.t_quota.max_inflight
        | None -> 0
      in
      if !total < t.cfg.batch_size && cnt < cap then begin
        Hashtbl.replace taken tenant (cnt + 1);
        incr total;
        sel := item :: !sel
      end
      else kept := item :: !kept)
    items;
  let sel = List.rev !sel in
  t.q_front <- List.rev !kept;
  t.q_len <- List.length t.q_front;
  (* per-tenant sub-batches, in config order *)
  List.iter
    (fun tc ->
      let mine = List.filter (fun (tenant, _, _) -> tenant = tc.t_name) sel in
      if mine <> [] then
        match tenant_state t tc.t_name with
        | None -> ()
        | Some ts ->
          let jobs = List.map (fun (_, j, _) -> j) mine in
          let interp =
            Option.map
              (fun f -> { Interp.default_config with Interp.fuel = Some f })
              tc.t_quota.fuel
          in
          let batch =
            Gateway.run_batch ~jobs:t.cfg.workers ~policies:t.cfg.policies ~ssa_q:t.cfg.ssa_q
              ~verification:t.cfg.verification ?layout:t.cfg.layout ~cache:ts.cache ?interp
              ~resilience_config:t.cfg.resilience ~audit:t.audit jobs
          in
          merge_latencies t batch;
          List.iter2
            (fun (_, _, r0) (res : Gateway.session_result) ->
              Hdr.observe t.wait_rounds (r - r0);
              ts.t_admitted <- ts.t_admitted + 1;
              t.admitted <- t.admitted + 1;
              bump t.exits res.Gateway.exit_code 1;
              bump ts.t_exits res.Gateway.exit_code 1;
              t.results_rev <- (res.Gateway.label, res.Gateway.exit_code) :: t.results_rev)
            mine batch.Gateway.results)
    t.cfg.tenants;
  if Chaos.kill_point t.chaos ~round:r then begin
    (* abrupt death: no trim, no seal — the queue and this round's
       warmness die with the process image *)
    t.killed_ <- true;
    t.round_ <- r + 1;
    `Killed
  end
  else begin
    Hashtbl.iter
      (fun _ ts ->
        ts.t_trim_evictions <-
          ts.t_trim_evictions + Verdict_cache.trim ts.cache ~capacity:ts.tc.t_quota.max_entries)
      t.tenants_tbl;
    t.round_ <- r + 1;
    if
      Option.is_some t.persist
      && t.cfg.persist_every > 0
      && (r + 1) mod t.cfg.persist_every = 0
    then persist_now t ~round:r;
    `Ok
  end

let rec drain t =
  if t.q_len > 0 && not t.killed_ then
    match run_round t with `Ok -> drain t | `Killed -> ()

let shutdown t =
  drain t;
  if not t.killed_ then persist_now t ~round:t.round_

(* ------------------------------------------------------------------ *)
(* Report *)

let exits_to_json tbl =
  Hashtbl.fold (fun code n acc -> (code, n) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (code, n) -> (string_of_int code, Json.Int n))
  |> fun l -> Json.Obj l

let cache_stats_json q (s : Verdict_cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.Verdict_cache.hits);
      ("misses", Json.Int s.Verdict_cache.misses);
      ("evictions", Json.Int s.Verdict_cache.evictions);
      ("entries", Json.Int s.Verdict_cache.entries);
      ("quota_max_entries", Json.Int q.max_entries);
    ]

let tenant_json t tc =
  match tenant_state t tc.t_name with
  | None -> Json.Null
  | Some ts ->
    Json.Obj
      [
        ("name", Json.Str tc.t_name);
        ("offered", Json.Int ts.t_offered);
        ("admitted", Json.Int ts.t_admitted);
        ("shed", Json.Int ts.t_shed);
        ( "quota",
          Json.Obj
            [
              ("max_entries", Json.Int tc.t_quota.max_entries);
              ("max_inflight", Json.Int tc.t_quota.max_inflight);
              ( "fuel",
                match tc.t_quota.fuel with None -> Json.Null | Some f -> Json.Int f );
            ] );
        ("cache", cache_stats_json tc.t_quota (Verdict_cache.stats ts.cache));
        ("trim_evictions", Json.Int ts.t_trim_evictions);
        ("exits", exits_to_json ts.t_exits);
      ]

let warm_totals t =
  Hashtbl.fold
    (fun _ ts (h, m) ->
      let s = Verdict_cache.stats ts.cache in
      (h + s.Verdict_cache.hits, m + s.Verdict_cache.misses))
    t.tenants_tbl (0, 0)

let doc t =
  let hits, misses = warm_totals t in
  let lat_json =
    Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.lat []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, h) -> (name, Hdr.to_json h))
  in
  Json.Obj
    [
      ("schema", Json.Str "deflection-server/1");
      ( "config",
        Json.Obj
          [
            ("policies", Json.Str (Policy.Set.label t.cfg.policies));
            ("ssa_q", Json.Int t.cfg.ssa_q);
            ("tenants", Json.Int (List.length t.cfg.tenants));
            ("queue_capacity", Json.Int t.cfg.queue_capacity);
            ("batch_size", Json.Int t.cfg.batch_size);
            ("persist_every", Json.Int t.cfg.persist_every);
            ("seed", Json.Str (Int64.to_string t.cfg.seed));
          ] );
      ("rounds", Json.Int t.round_);
      ("killed", Json.Bool t.killed_);
      ("offered", Json.Int t.offered);
      ("admitted", Json.Int t.admitted);
      ("shed", Json.Int t.shed);
      ("rejected", Json.Int t.rejected);
      ("queue_depth", Json.Int t.q_len);
      ("warm_hits", Json.Int hits);
      ("cold_misses", Json.Int misses);
      ( "warm_hit_ratio",
        Json.Float (if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)) );
      ("preloaded", Json.Int t.preloaded);
      ("persist_failures", Json.Int t.persist_failures);
      ("queue_wait_rounds", Hdr.to_json t.wait_rounds);
      ("exits", exits_to_json t.exits);
      ( "recovery",
        match t.recovery_ with None -> Json.Null | Some r -> Persist.load_report_to_json r );
      ("tenants", Json.List (List.map (tenant_json t) t.cfg.tenants));
      ( "timing",
        Json.Obj [ ("workers", Json.Int t.cfg.workers); ("latency_ns", Json.Obj lat_json) ] );
    ]

(* ------------------------------------------------------------------ *)
(* Open-loop load generation *)

module Load = struct
  let ok_source v = Printf.sprintf "int main() { print_int(%d); return 0; }" (100 + v)
  let abort_source = "int buf[4];\nint main() { buf[2000000] = 7; return 0; }"

  (* Round [round]'s arrivals of an [offered]-over-[rounds] schedule:
     a pure function of (config.seed, round), so a restarted server
     replaying the run sees byte-identical requests. *)
  let arrivals cfg ~offered ~rounds ~round =
    if rounds < 1 then invalid_arg "Load.arrivals: rounds must be >= 1";
    let rng =
      Prng.create
        (Prng.derive
           (Prng.derive cfg.seed ~label:"server-load")
           ~label:(string_of_int round))
    in
    let n = (offered / rounds) + if round < offered mod rounds then 1 else 0 in
    let tenants = Array.of_list cfg.tenants in
    List.init n (fun i ->
        let seed = Int64.of_int ((round * 1_000_000) + i) in
        if i mod 13 = 7 then
          (* a slice of traffic names a tenant this server doesn't host *)
          ("ghost", Gateway.job ~label:(Printf.sprintf "ghost-r%d-i%d-ok0" round i) ~seed (ok_source 0))
        else begin
          let tc = tenants.((round + i) mod Array.length tenants) in
          let label kind = Printf.sprintf "%s-r%d-i%d-%s" tc.t_name round i kind in
          match tc.t_quota.fuel with
          | Some _ ->
            (* fuel-capped tenant: compliant code its budget can't finish *)
            let v = Prng.int rng (tc.t_quota.max_entries + 2) in
            (tc.t_name, Gateway.job ~label:(label (Printf.sprintf "fuel%d" v)) ~seed (ok_source v))
          | None -> (
            match Prng.int rng 10 with
            | 8 ->
              (tc.t_name, Gateway.job ~label:(label "abort") ~seed abort_source)
            | 9 ->
              (* annotated for P1 only: the gateway's richer set rejects it *)
              ( tc.t_name,
                Gateway.job ~compile_policies:Policy.Set.p1 ~label:(label "reject") ~seed
                  (ok_source 0) )
            | _ ->
              (* more distinct compliant binaries than the entry quota,
                 so quota trims actually happen *)
              let v = Prng.int rng (tc.t_quota.max_entries + 2) in
              (tc.t_name, Gateway.job ~label:(label (Printf.sprintf "ok%d" v)) ~seed (ok_source v)))
        end)

  let expected_exit cfg label =
    let tenant =
      match String.index_opt label '-' with
      | Some i -> String.sub label 0 i
      | None -> label
    in
    match List.find_opt (fun tc -> tc.t_name = tenant) cfg.tenants with
    | None -> None
    | Some tc ->
      let kind =
        match String.rindex_opt label '-' with
        | Some i -> String.sub label (i + 1) (String.length label - i - 1)
        | None -> ""
      in
      let has_prefix p =
        String.length kind >= String.length p && String.sub kind 0 (String.length p) = p
      in
      if has_prefix "reject" then Some 2  (* refused before execution, fuel or not *)
      else if Option.is_some tc.t_quota.fuel then Some 11
      else if has_prefix "abort" then Some 9
      else if has_prefix "ok" || has_prefix "fuel" || has_prefix "storm" then Some 0
      else None
end

let offer_load t ~offered ~rounds =
  let r = t.round_ in
  (match Chaos.queue_storm t.chaos ~round:r with
  | None -> ()
  | Some burst ->
    let tc = List.hd t.cfg.tenants in
    for k = 0 to burst - 1 do
      ignore
        (offer t ~tenant:tc.t_name
           (Gateway.job
              ~label:(Printf.sprintf "%s-r%d-i%d-storm" tc.t_name r k)
              ~seed:(Int64.of_int ((r * 1_000_000) + 900_000 + k))
              (Load.ok_source 0)))
    done);
  List.iter
    (fun (tenant, job) -> ignore (offer t ~tenant job))
    (Load.arrivals t.cfg ~offered ~rounds ~round:r)

let serve_load t ~offered ~rounds ~kill_after =
  let rec go r =
    if r < rounds && not t.killed_ then begin
      offer_load t ~offered ~rounds;
      match run_round t with
      | `Killed -> ()
      | `Ok ->
        (match kill_after with
        | Some k when r >= k ->
          (* scripted SIGKILL: die after this round's sessions ran, with
             no drain and no final seal — only periodic seals survive *)
          Stdlib.exit 137
        | _ -> ());
        go (r + 1)
    end
  in
  go t.round_;
  shutdown t;
  if t.killed_ then `Killed else `Done

(* ------------------------------------------------------------------ *)
(* Chaos campaign *)

type campaign_case = {
  c_seed : int64;
  c_plan : Chaos.plan;
  c_killed : int;
  c_admitted : int;
  c_shed : int;
  c_recovery_discarded : int;
  c_violations : string list;
}

type campaign = {
  base_seed : int64;
  cases : campaign_case list;
  total_violations : int;
  fired : (string * int) list;
}

let campaign_quota = { max_entries = 4; max_inflight = 4; fuel = None }

let campaign_config ~dir ~seed =
  {
    default_config with
    tenants =
      [
        { t_name = "t0"; t_quota = campaign_quota };
        { t_name = "t1"; t_quota = campaign_quota };
        { t_name = "t2"; t_quota = { campaign_quota with max_entries = 3; max_inflight = 2 } };
        { t_name = "t3"; t_quota = { campaign_quota with fuel = Some 5 } };
      ];
    queue_capacity = 16;
    batch_size = 6;
    workers = 2;
    seed;
    state_dir = Some dir;
    persist_every = 1;
    segment_entries = 4;
  }

let clean_state_dir dir =
  List.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.file_exists p then Sys.remove p)
    [ "verdict-cache.json"; "verdict-cache.json.1"; "verdict-cache.json.tmp" ]

let oracle_violations cfg server =
  List.filter_map
    (fun (label, code) ->
      match Load.expected_exit cfg label with
      | Some expected when expected <> code ->
        Some (Printf.sprintf "%s: expected exit %d, got %d" label expected code)
      | Some _ -> None
      | None -> Some (Printf.sprintf "%s: admitted label outside the load schedule" label))
    (results server)

let run_case ~state_root ~offered i seed =
  let plan = Chaos.generate_server ~seed in
  let dir = Filename.concat state_root (Printf.sprintf "seed-%d" i) in
  (if not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  clean_state_dir dir;
  let cfg = campaign_config ~dir ~seed in
  let engine = Chaos.of_plan plan in
  let rounds = 8 and restart_at = 4 in
  let violations = ref [] in
  let n_killed = ref 0 and n_admitted = ref 0 and n_shed = ref 0 and discarded = ref 0 in
  let note_recovery s =
    match recovery s with
    | None -> ()
    | Some r ->
      discarded := !discarded + r.Persist.segments_discarded;
      if r.Persist.found && r.Persist.malformed then incr discarded
  in
  let fold_run s =
    violations := !violations @ oracle_violations cfg s;
    n_admitted := !n_admitted + List.length (results s);
    let d = doc s in
    (match Json.member "shed" d with Some (Json.Int n) -> n_shed := !n_shed + n | _ -> ())
  in
  (* incarnation 1: serve the first half, then stop without a graceful
     seal — whatever the periodic seals left on disk (possibly torn) is
     what recovery gets *)
  let inc1 = create ~chaos:engine cfg in
  (try
     for _ = 0 to restart_at - 1 do
       if killed inc1 then raise Exit;
       offer_load inc1 ~offered ~rounds;
       match run_round inc1 with `Killed -> raise Exit | `Ok -> ()
     done
   with Exit -> ());
  if killed inc1 then incr n_killed;
  fold_run inc1;
  (* restart against the same state dir until a full replay completes;
     kill points are one-shot, so this converges fast *)
  let rec full n =
    if n > 4 then begin
      violations := "restart loop did not converge" :: !violations;
      None
    end
    else begin
      let s = create ~chaos:engine cfg in
      note_recovery s;
      match serve_load s ~offered ~rounds ~kill_after:None with
      | `Killed ->
        incr n_killed;
        fold_run s;
        full (n + 1)
      | `Done -> Some s
    end
  in
  (match full 1 with
  | None -> ()
  | Some final ->
    fold_run final;
    (* the audit chain of the surviving incarnation must verify *)
    (match Audit.verify ~platform:final.platform (audit_doc final) with
    | Ok _ -> ()
    | Error tamper ->
      violations :=
        Printf.sprintf "audit verify failed: %s" (Audit.tamper_to_string tamper) :: !violations);
    (* and a clean reload of the final sealed state must be whole *)
    let _, _, report =
      Persist.recover ~segment_entries:cfg.segment_entries ~dir ~platform:final.platform ()
    in
    if
      report.Persist.malformed || report.Persist.truncated
      || report.Persist.segments_discarded > 0
    then violations := "final sealed state did not reload clean" :: !violations);
  ( {
      c_seed = seed;
      c_plan = plan;
      c_killed = !n_killed;
      c_admitted = !n_admitted;
      c_shed = !n_shed;
      c_recovery_discarded = !discarded;
      c_violations = !violations;
    },
    Chaos.fired engine )

let chaos_campaign ?(base_seed = 1000L) ?(seeds = 4) ?(offered = 48) ~state_root () =
  (if not (Sys.file_exists state_root) then
     try Sys.mkdir state_root 0o755 with Sys_error _ -> ());
  let fired_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let cases =
    List.init seeds (fun i ->
        let seed = Int64.add base_seed (Int64.of_int i) in
        let case, fired = run_case ~state_root ~offered i seed in
        List.iter (fun (site, n) -> bump fired_tbl site n) fired;
        case)
  in
  {
    base_seed;
    cases;
    total_violations = List.fold_left (fun acc c -> acc + List.length c.c_violations) 0 cases;
    fired =
      List.map
        (fun s ->
          let l = Chaos.site_label s in
          (l, Option.value ~default:0 (Hashtbl.find_opt fired_tbl l)))
        Chaos.all_sites;
  }

let campaign_to_json c =
  Json.Obj
    [
      ("schema", Json.Str "deflection-server-chaos/1");
      ("base_seed", Json.Str (Int64.to_string c.base_seed));
      ("seeds", Json.Int (List.length c.cases));
      ("violations", Json.Int c.total_violations);
      ("fired", Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) c.fired));
      ( "cases",
        Json.List
          (List.map
             (fun case ->
               Json.Obj
                 [
                   ("seed", Json.Str (Int64.to_string case.c_seed));
                   ("plan", Chaos.plan_to_json case.c_plan);
                   ("killed", Json.Int case.c_killed);
                   ("admitted", Json.Int case.c_admitted);
                   ("shed", Json.Int case.c_shed);
                   ("recovery_discarded", Json.Int case.c_recovery_discarded);
                   ("violations", Json.List (List.map (fun v -> Json.Str v) case.c_violations));
                 ])
             c.cases) );
    ]
