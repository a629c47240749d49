(* End-to-end admission benchmark.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--small]
              [--results DIR]

   The untraced run (--trace 0) measures what a user of the system sees:
   session latency, throughput, the virtual-cycle cost of the policies,
   the share of requests admitted, and set-up time. The traced run
   (--trace 1) rebuilds each session from its public calls and reports
   every layer's time, counts and share (see traced.ml). Every admission
   is checked against the reference evaluator or the server's oracle;
   the last line of standard output is a JSON summary, and the run exits
   1 if any check failed. *)

module Session = Deflection.Session
module Policy = Deflection_policy.Policy
module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Server = Deflection_server.Server
module Audit = Deflection_audit.Audit
module Attestation = Deflection_attestation.Attestation
module Json = Deflection_telemetry.Json
module Prng = Deflection_util.Prng
module Eval = Deflection_compiler.Eval

type workload = Exec_apps | Admit_descent | Admit_witnessed | Serve_restart

let workloads =
  [
    ("exec-apps", Exec_apps);
    ("admit-descent", Admit_descent);
    ("admit-witnessed", Admit_witnessed);
    ("serve-restart", Serve_restart);
  ]

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Set-up is repeated and its median reported, so one slow phase of the
   machine does not decide it. *)
let setup_reps = 3

(* ------------------------------------------------------------------ *)
(* Failures *)

let attempted = ref 0
let failed = ref 0
let problems = ref []

let problem fmt =
  Printf.ksprintf
    (fun s ->
      problems := s :: !problems;
      prerr_endline ("e2e: " ^ s))
    fmt

(* an operation that disagreed with its oracle *)
let failure fmt =
  incr failed;
  problem fmt

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric name unit_ samples value = { name; value; unit_; samples }

let ms s = s *. 1e3

let print_metric m =
  Printf.printf "  %-40s %14.6g %-6s (%d samples)\n" m.name m.value m.unit_ m.samples

let metrics_json ms_ =
  Json.Obj
    (List.map
       (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
       ms_)

(* [(key, value)] pairs -> key -> values *)
let group pairs =
  let t = Hashtbl.create 64 in
  List.iter
    (fun (k, v) -> Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k)))
    pairs;
  t

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_json path doc =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  Json.to_channel ~pretty:true oc doc;
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Admissions and their oracle *)

let check (p : Corpus.program) ~exit ~outputs =
  match exit with
  | Interp.Exited c when Int64.equal c p.Corpus.expected.Eval.exit_code ->
    if outputs = p.Corpus.expected.Eval.outputs then Ok ()
    else Error "decrypted outputs differ from the reference"
  | e ->
    Error
      (Printf.sprintf "exit %s where the reference exits %Ld" (Interp.exit_reason_to_string e)
         p.Corpus.expected.Eval.exit_code)

let session_seed ~seed (p : Corpus.program) = Prng.derive seed ~label:p.Corpus.name

(* One [Session.run], checked against the reference. *)
let admit (c : Corpus.config) ~policies ~seed (p : Corpus.program) =
  let r, dt =
    time (fun () ->
        Session.run ~policies ~layout:c.Corpus.layout ~manifest:c.Corpus.manifest
          ~interp:c.Corpus.interp ~verification:c.Corpus.verification
          ~seed:(session_seed ~seed p) ~source:p.Corpus.source ~inputs:p.Corpus.inputs ())
  in
  match r with
  | Error e -> Error (Session.error_to_string e)
  | Ok o ->
    check p ~exit:o.Session.exit ~outputs:(List.map Bytes.to_string o.Session.outputs)
    |> Result.map (fun () -> (o, dt))

(* Run whole passes until [seconds] is reached to the nearest pass, at
   least one: every program gets the same number of samples. *)
let passes ~seconds f =
  let t0 = now () in
  let rec go k =
    let (), dt = time (fun () -> f k) in
    if now () -. t0 +. (dt /. 2.) < seconds then go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Set-up: the corpus, its references, and the policy-none baseline pass,
   which also warms every layer of the session before timing starts. *)

type setup = {
  config : Corpus.config;
  programs : Corpus.program array;
  cycles_none : int array;
  cycles_p1_p6 : int array option;
      (* measured here only where the timed loop cannot report cycles *)
}

let corpus w ~small ~seed =
  match w with
  | Exec_apps -> (Corpus.exec_config, Corpus.exec_apps ~small ~seed)
  | Admit_descent -> (Corpus.admit_config Verifier.Descent, Corpus.admit ~small ~seed)
  | Admit_witnessed -> (Corpus.admit_config Verifier.Witnessed, Corpus.admit ~small ~seed)
  | Serve_restart ->
    ( Corpus.serve_config,
      Corpus.serve_programs ~small (Corpus.server_config ~seed) )

let cycles_pass config programs ~policies ~seed =
  Array.map
    (fun p ->
      match admit config ~policies ~seed p with
      | Ok (o, _) -> o.Session.cycles
      | Error msg ->
        problem "set-up %s under %s: %s" p.Corpus.name (Policy.Set.label policies) msg;
        1)
    programs

let set_up w ~small ~seed =
  let (config, programs), dt = time (fun () -> corpus w ~small ~seed) in
  Printf.printf "set-up: corpus and references %.3f s\n%!" dt;
  let programs = Array.of_list programs in
  let cycles_none = cycles_pass config programs ~policies:Policy.Set.none ~seed in
  let cycles_p1_p6 =
    match w with
    | Serve_restart -> Some (cycles_pass config programs ~policies:Policy.Set.p1_p6 ~seed)
    | _ -> None
  in
  { config; programs; cycles_none; cycles_p1_p6 }

let set_up_repeated w ~small ~seed ~reps =
  let runs = List.init reps (fun _ -> time (fun () -> set_up w ~small ~seed)) in
  let first = fst (List.hd runs) in
  List.iter
    (fun (s, _) ->
      if s.programs <> first.programs || s.cycles_none <> first.cycles_none
         || s.cycles_p1_p6 <> first.cycles_p1_p6
      then problem "set-up is not deterministic: corpus, references or baseline cycles differ")
    runs;
  (first, List.map snd runs)

let overhead_pct ~cycles_p1_p6 ~cycles_none =
  let ratios =
    Array.to_list
      (Array.mapi (fun i c -> float_of_int c /. float_of_int cycles_none.(i)) cycles_p1_p6)
  in
  (Stats.geomean ratios -. 1.) *. 100.

(* ------------------------------------------------------------------ *)
(* Closed loop: one client, cold [Session.run] of each program in a
   seed-shuffled order per pass. *)

type closed = {
  latencies : float list array;  (* seconds, per program *)
  counts : (int * int * int) option array;  (* instructions, cycles, checked *)
  mutable npasses : int;
}

let closed_loop s ~seconds ~seed ~traced =
  let n = Array.length s.programs in
  let st = { latencies = Array.make n []; counts = Array.make n None; npasses = 0 } in
  let rng = Prng.create (Prng.derive seed ~label:"order") in
  let pass k =
    let order = Array.init n Fun.id in
    Prng.shuffle rng order;
    Array.iter
      (fun i ->
        let p = s.programs.(i) in
        incr attempted;
        (match admit s.config ~policies:Policy.Set.p1_p6 ~seed p with
        | Error msg -> failure "%s: %s" p.Corpus.name msg
        | Ok (o, dt) ->
          st.latencies.(i) <- dt :: st.latencies.(i);
          let c =
            ( o.Session.instructions,
              o.Session.cycles,
              o.Session.verifier_report.Verifier.instructions_checked )
          in
          (match st.counts.(i) with
          | None -> st.counts.(i) <- Some c
          | Some c0 when c0 = c -> ()
          | Some _ -> problem "%s: counts differ between sessions" p.Corpus.name));
        traced k i p)
      order;
    st.npasses <- k + 1
  in
  passes ~seconds pass;
  st

(* Each program's fastest session in the run. Interference from other
   tenants of a shared machine only ever adds time, and it comes in spells
   that cover part of a run: over eight seeded admit-descent runs on a
   shared two-core machine, the geometric mean of the fastest sessions
   spread 8% between quartiles where that of the medians spread 26%. *)
let program_best st =
  Array.to_list (Array.map (fun l -> if l = [] then nan else Stats.min l) st.latencies)

(* ------------------------------------------------------------------ *)
(* serve-restart: a cold serve of the open-loop schedule, shutdown, a
   warm restart over the sealed state and a replay of the schedule. *)

type phase = {
  round_s : float array;  (* per round: offering the round's arrivals and admitting *)
  admissions : (string * int * int) list;  (* request kind, offering round, admitting round *)
  results : (string * int) list;
  doc : Json.t;
}

let int_member key doc = match Json.member key doc with Some (Json.Int n) -> n | _ -> 0

(* "t0-r3-i5-ok17" -> offer round 3, program "ok17" *)
let parse_label label =
  match String.split_on_char '-' label with
  | [ _; r; _; kind ] when String.length r > 1 && r.[0] = 'r' ->
    (int_of_string (String.sub r 1 (String.length r - 1)), kind)
  | _ -> failwith ("unexpected server request label " ^ label)

let serve srv ~offered ~rounds =
  let round_s = ref [] and admissions = ref [] and seen = ref 0 in
  let round ~offer =
    let j = List.length !round_s in
    let (), dt =
      time (fun () ->
          if offer then Server.offer_load srv ~offered ~rounds;
          ignore (Server.run_round srv))
    in
    round_s := dt :: !round_s;
    let results = Server.results srv in
    List.iteri
      (fun i (label, _) ->
        if i >= !seen then
          let r, kind = parse_label label in
          admissions := (kind, r, j) :: !admissions)
      results;
    seen := List.length results
  in
  for _ = 1 to rounds do
    round ~offer:true
  done;
  while int_member "queue_depth" (Server.doc srv) > 0 do
    round ~offer:false
  done;
  {
    round_s = Array.of_list (List.rev !round_s);
    admissions = !admissions;
    results = Server.results srv;
    doc = Server.doc srv;
  }

type cycle = {
  cold : phase;
  warm : phase;
  create_s : float;
  shutdown_s : float;
  restart_s : float;  (* [Server.create] over the sealed state *)
  final_shutdown_s : float;
}

let serve_cycle ~small ~seed ~state_dir =
  rm_rf state_dir;
  let cfg = { (Corpus.server_config ~seed) with Server.state_dir = Some state_dir } in
  let offered = Corpus.serve_offered ~small and rounds = Corpus.serve_rounds ~small in
  let platform = Attestation.Platform.create ~seed:cfg.Server.seed in
  let check_phase what srv ph =
    attempted := !attempted + int_member "offered" ph.doc;
    List.iter
      (fun (label, code) ->
        match Server.Load.expected_exit cfg label with
        | Some e when e = code -> ()
        | _ -> failure "%s serve: %s exited %d" what label code)
      ph.results;
    match Audit.verify ~platform (Server.audit_doc srv) with
    | Ok s when s.Audit.n_records = List.length ph.results -> ()
    | Ok s ->
      failure "%s serve: audit log holds %d records for %d admissions" what s.Audit.n_records
        (List.length ph.results)
    | Error t -> failure "%s serve: audit log does not verify: %s" what (Audit.tamper_to_string t)
  in
  let srv, create_s = time (fun () -> Server.create cfg) in
  let cold = serve srv ~offered ~rounds in
  let (), shutdown_s = time (fun () -> Server.shutdown srv) in
  check_phase "cold" srv cold;
  let srv, restart_s = time (fun () -> Server.create cfg) in
  let warm = serve srv ~offered ~rounds in
  let (), final_shutdown_s = time (fun () -> Server.shutdown srv) in
  check_phase "warm" srv warm;
  if warm.results <> cold.results then problem "the warm replay admitted different results";
  rm_rf state_dir;
  { cold; warm; create_s; shutdown_s; restart_s; final_shutdown_s }

let admitted ph = int_member "admitted" ph.doc
let offered ph = int_member "offered" ph.doc

let hit_share ph =
  let h = int_member "warm_hits" ph.doc and m = int_member "cold_misses" ph.doc in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let serve_loop ~small ~seconds ~seed ~state_dir =
  let cycles = ref [] in
  passes ~seconds (fun _ -> cycles := serve_cycle ~small ~seed ~state_dir :: !cycles);
  let cycles = List.rev !cycles in
  let c0 = List.hd cycles in
  List.iter
    (fun c ->
      if
        c.cold.results <> c0.cold.results
        || Array.length c.cold.round_s <> Array.length c0.cold.round_s
        || Array.length c.warm.round_s <> Array.length c0.warm.round_s
        || hit_share c.warm <> hit_share c0.warm
      then problem "server cycles are not deterministic")
    cycles;
  cycles

(* Every cycle repeats the same rounds, so, as the closed loops take each
   program's fastest session, each round, create and shutdown is taken at
   its fastest repetition. Over ten seeded runs on a shared two-core
   machine, the throughput of the fastest rounds spread 9% between
   quartiles where that of the fastest whole cycle spread 16%. *)
let fastest cycles f = Stats.min (List.map f cycles)

let fastest_rounds cycles phase =
  Array.mapi
    (fun j _ -> fastest cycles (fun c -> (phase c).round_s.(j)))
    (phase (List.hd cycles)).round_s

(* a request's latency: from the start of the round that offered it to
   the end of the round that admitted it, so queueing counts *)
let request_latencies round_s ph =
  List.map
    (fun (kind, r, a) -> (kind, Stats.sum (Array.to_list (Array.sub round_s r (a - r + 1)))))
    ph.admissions

(* ------------------------------------------------------------------ *)
(* The untraced run: end-to-end metrics *)

let end_to_end w ~small ~seed ~seconds ~results_dir =
  let s, setup_times = set_up_repeated w ~small ~seed ~reps:setup_reps in
  let setup = metric "setup_s" "s" setup_reps (Stats.median setup_times) in
  let cycles_overhead cycles_p1_p6 =
    metric "cycles_overhead_pct" "%" (Array.length cycles_p1_p6)
      (overhead_pct ~cycles_p1_p6 ~cycles_none:s.cycles_none)
  in
  let metrics, details =
    match w with
    | Serve_restart ->
      let state_dir = Filename.concat results_dir "serve-state" in
      let cycles = serve_loop ~small ~seconds ~seed ~state_dir in
      let c0 = List.hd cycles in
      let ncycles = List.length cycles in
      let cold_rounds = fastest_rounds cycles (fun c -> c.cold)
      and warm_rounds = fastest_rounds cycles (fun c -> c.warm) in
      let cycle_s =
        fastest cycles (fun c -> c.create_s)
        +. Stats.sum (Array.to_list cold_rounds)
        +. fastest cycles (fun c -> c.shutdown_s)
        +. fastest cycles (fun c -> c.restart_s)
        +. Stats.sum (Array.to_list warm_rounds)
        +. fastest cycles (fun c -> c.final_shutdown_s)
      in
      let lat = request_latencies cold_rounds c0.cold @ request_latencies warm_rounds c0.warm in
      let kind_medians = Hashtbl.fold (fun _ l acc -> Stats.median l :: acc) (group lat) [] in
      let nrequests = ncycles * List.length lat in
      ( [
          metric "session_ms_geomean" "ms" nrequests (ms (Stats.geomean kind_medians));
          metric "sessions_per_s" "1/s" nrequests
            (float_of_int (admitted c0.cold + admitted c0.warm) /. cycle_s);
          cycles_overhead (Option.get s.cycles_p1_p6);
          metric "admitted_share" "ratio" ncycles
            (float_of_int (admitted c0.cold + admitted c0.warm)
            /. float_of_int (offered c0.cold + offered c0.warm));
          setup;
        ],
        [
          ("cycles", Json.Int ncycles);
          ( "round_ms",
            Json.List
              (List.map
                 (fun c ->
                   Json.Obj
                     (List.map
                        (fun (name, ph) ->
                          ( name,
                            Json.List
                              (Array.to_list (Array.map (fun t -> Json.Float (ms t)) ph.round_s))
                          ))
                        [ ("cold", c.cold); ("warm", c.warm) ]))
                 cycles) );
          ("cold_doc", c0.cold.doc);
          ("warm_doc", c0.warm.doc);
        ] )
    | Exec_apps | Admit_descent | Admit_witnessed ->
      let st = closed_loop s ~seconds ~seed ~traced:(fun _ _ _ -> ()) in
      let best = program_best st in
      let nsessions = Array.fold_left (fun a l -> a + List.length l) 0 st.latencies in
      let cycles_p1_p6 =
        Array.map (function Some (_, c, _) -> c | None -> 1) st.counts
      in
      ( [
          metric "session_ms_geomean" "ms" nsessions (ms (Stats.geomean best));
          metric "sessions_per_s" "1/s" nsessions
            (float_of_int (List.length best) /. Stats.sum best);
          cycles_overhead cycles_p1_p6;
          metric "admitted_share" "ratio" nsessions 1.0;
          setup;
        ],
        [
          ("passes", Json.Int st.npasses);
          ( "programs",
            Json.List
              (Array.to_list
                 (Array.mapi
                    (fun i (p : Corpus.program) ->
                      Json.Obj
                        [
                          ("name", Json.Str p.Corpus.name);
                          ("samples", Json.Int (List.length st.latencies.(i)));
                          ( "latencies_ms",
                            Json.List
                              (List.rev_map (fun l -> Json.Float (ms l)) st.latencies.(i)) );
                          ("best_ms", Json.Float (ms (List.nth best i)));
                          ("cycles_p1_p6", Json.Int cycles_p1_p6.(i));
                          ("cycles_none", Json.Int s.cycles_none.(i));
                        ])
                    s.programs)) );
        ] )
  in
  (metrics, ("setup_s_reps", Json.List (List.map (fun t -> Json.Float t) setup_times)) :: details)

(* ------------------------------------------------------------------ *)
(* The traced run: per-layer metrics *)

(* The spans reported per layer; their share of the session is printed. *)
let layer_spans =
  [
    "frontend.compile";
    "attest.begin";
    "attest.accept";
    "attest.complete";
    "channel.seal_binary";
    "channel.open_binary";
    "channel.upload";
    "channel.decrypt";
    "objfile.parse";
    "loader.load";
    "loader.rewrite";
    "verifier.verify";
    "bootstrap.create";
    "bootstrap.deliver";
    "bootstrap.run";
  ]

let replica_parts =
  [ "channel.open_binary"; "objfile.parse"; "loader.load"; "verifier.verify"; "loader.rewrite" ]

type decomposed = {
  sid : int;
  session_s : float;  (* without the delivery replica *)
  coverage : float;  (* share of [session_s] the top-level spans cover *)
  total : string -> float;  (* summed duration of the session's spans of a name *)
}

let decomposed_sessions (r : Traced.recorder) =
  Hashtbl.fold
    (fun sid spans acc ->
      match List.find_opt (fun sp -> sp.Traced.parent = -1) spans with
      | None -> acc (* the session failed before its root closed *)
      | Some root ->
        let sum keep =
          List.fold_left (fun a sp -> if keep sp then a +. Traced.duration sp else a) 0. spans
        in
        let total name = sum (fun sp -> sp.Traced.name = name) in
        let session_s = Traced.duration root -. total "deliver.replica" in
        let covered =
          sum (fun sp -> sp.Traced.parent = root.Traced.id && sp.Traced.name <> "deliver.replica")
        in
        { sid; session_s; coverage = covered /. session_s; total } :: acc)
    (group (List.map (fun (sp : Traced.span) -> (sp.Traced.sid, sp)) r.Traced.spans))
    []

let layer_report sessions =
  let session_total = Stats.sum (List.map (fun d -> d.session_s) sessions) in
  List.map
    (fun name ->
      let per = List.map (fun d -> d.total name) sessions in
      (name, Stats.median per, Stats.sum per /. session_total, List.length sessions))
    layer_spans

(* Each pass runs every program untraced and then decomposed, so the two
   see the same machine; set-up runs once, as it is not reported here. *)
let traced_run w ~small ~seed ~seconds ~results_dir =
  let s, _ = set_up_repeated w ~small ~seed ~reps:1 in
  let r = Traced.recorder () in
  let program_of_sid = Hashtbl.create 64 in
  (* per pass: objfile bytes, imms rewritten, instructions checked,
     instructions executed, cycles *)
  let per_pass = Hashtbl.create 8 in
  let traced k i p =
    incr attempted;
    match Traced.session r ~config:s.config ~seed:(session_seed ~seed p) p with
    | exception Traced.Failed msg -> failure "traced %s: %s" p.Corpus.name msg
    | res -> (
      Hashtbl.replace program_of_sid r.Traced.sid i;
      let counts =
        [|
          res.Traced.objfile_bytes;
          res.Traced.imms_rewritten;
          res.Traced.instructions_checked;
          res.Traced.instructions;
          res.Traced.cycles;
        |]
      in
      let acc = Option.value ~default:(Array.make 5 0) (Hashtbl.find_opt per_pass k) in
      Hashtbl.replace per_pass k (Array.map2 ( + ) acc counts);
      match check p ~exit:res.Traced.exit ~outputs:res.Traced.outputs with
      | Ok () -> ()
      | Error msg -> failure "traced %s: %s" p.Corpus.name msg)
  in
  let server =
    match w with
    | Serve_restart ->
      let state_dir = Filename.concat results_dir "serve-state" in
      let c = serve_cycle ~small ~seed ~state_dir in
      let rounds ph = Array.length ph.round_s in
      let median ph = Stats.median (Array.to_list ph.round_s) in
      [
        metric "server.round_ms_cold" "ms" (rounds c.cold) (ms (median c.cold));
        metric "server.round_ms_warm" "ms" (rounds c.warm) (ms (median c.warm));
        metric "server.shutdown_ms" "ms" 1 (ms c.shutdown_s);
        metric "server.restart_ms" "ms" 1 (ms c.restart_s);
        metric "server.cache_hit_share" "ratio" (admitted c.warm) (hit_share c.warm);
        metric "server.preloaded" "count" 1 (float_of_int (int_member "preloaded" c.warm.doc));
      ]
    | _ -> []
  in
  let st = closed_loop s ~seconds ~seed ~traced in
  (* the untraced sessions' counts must match the decomposed ones *)
  let passes = Hashtbl.fold (fun _ c acc -> c :: acc) per_pass [] in
  let first = match passes with c :: _ -> c | [] -> Array.make 5 0 in
  if List.exists (fun c -> c <> first) passes then problem "per-pass counts differ between passes";
  let untraced f =
    Array.fold_left (fun a c -> match c with Some c -> a + f c | None -> a) 0 st.counts
  in
  if untraced (fun (_, _, k) -> k) <> first.(2) || untraced (fun (i, _, _) -> i) <> first.(3) then
    problem "decomposed sessions count differently from Session.run";
  let sessions = decomposed_sessions r in
  let coverage = List.fold_left (fun a d -> Float.min a d.coverage) 1. sessions in
  if coverage < 0.95 then
    problem "top-level spans cover only %.1f%% of a session (gate: 95%%)" (coverage *. 100.);
  let layers = layer_report sessions in
  let sum_of name = Stats.sum (List.map (fun d -> d.total name) sessions) in
  let nsess = List.length sessions in
  let nprog = Array.length s.programs in
  let overhead =
    let by_program =
      group
        (List.filter_map
           (fun d -> Option.map (fun i -> (i, d.session_s)) (Hashtbl.find_opt program_of_sid d.sid))
           sessions)
    in
    let ratios =
      Hashtbl.fold
        (fun i dec acc ->
          match st.latencies.(i) with
          | [] -> acc
          | u -> (Stats.min dec /. Stats.min u) :: acc)
        by_program []
    in
    (Stats.geomean ratios -. 1.) *. 100.
  in
  let metrics =
    List.map (fun (name, p50, _, n) -> metric (name ^ "_ms") "ms" n (ms p50)) layers
    @ [
        metric "frontend.objfile_bytes" "count" nprog (float_of_int first.(0));
        metric "loader.imms_rewritten" "count" nprog (float_of_int first.(1));
        metric "verifier.instructions_checked" "count" nprog (float_of_int first.(2));
        metric "verifier.minstr_per_s" "Minstr/s" nsess
          (float_of_int (first.(2) * List.length passes) /. sum_of "verifier.verify" /. 1e6);
        metric "interp.instructions" "count" nprog (float_of_int first.(3));
        metric "interp.cycles" "count" nprog (float_of_int first.(4));
        metric "interp.minstr_per_s" "Minstr/s" nsess
          (float_of_int (first.(3) * List.length passes) /. sum_of "bootstrap.run" /. 1e6);
        metric "bootstrap.deliver_unattributed_share" "ratio" nsess
          (1. -. (Stats.sum (List.map sum_of replica_parts) /. sum_of "bootstrap.deliver"));
        metric "trace.coverage_min" "ratio" nsess coverage;
        metric "trace.overhead_pct" "%" nsess overhead;
      ]
  in
  let t_origin =
    List.fold_left (fun a sp -> Int64.min a sp.Traced.start_ns) Int64.max_int r.Traced.spans
  in
  let details =
    [
      ( "layers",
        Json.List
          (List.map
             (fun (name, p50, share, n) ->
               Json.Obj
                 [
                   ("span", Json.Str name);
                   ("p50_ms", Json.Float (ms p50));
                   ("share", Json.Float share);
                   ("samples", Json.Int n);
                 ])
             layers) );
      ("server", metrics_json server);
      ( "spans",
        Json.List
          (List.map
             (fun (sp : Traced.span) ->
               Json.Obj
                 [
                   ("sid", Json.Int sp.Traced.sid);
                   ("id", Json.Int sp.Traced.id);
                   ("parent", Json.Int sp.Traced.parent);
                   ("name", Json.Str sp.Traced.name);
                   ("start_ns", Json.Int (Int64.to_int (Int64.sub sp.Traced.start_ns t_origin)));
                   ( "dur_ns",
                     Json.Int (Int64.to_int (Int64.sub sp.Traced.stop_ns sp.Traced.start_ns)) );
                 ])
             (List.sort (fun a b -> compare a.Traced.id b.Traced.id) r.Traced.spans)) );
    ]
  in
  (metrics, server, layers, details)

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 12. and trace = ref 0 in
  let small = ref false and results_dir = ref "bench/e2e/results" in
  let specs =
    [
      ("--workload", Arg.Set_string workload,
       "W  " ^ String.concat " | " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N  seed the inputs are made from (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed load (default 12)");
      ("--trace", Arg.Set_int trace, "0|1  1 runs the traced per-layer breakdown (default 0)");
      ("--small", Arg.Set small, " reduced corpus, for the smoke test");
      ( "--results",
        Arg.Set_string results_dir,
        "DIR  where result files go (default bench/e2e/results)" );
    ]
  in
  let usage = "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w when !trace = 0 || !trace = 1 -> w
    | _ ->
      Arg.usage specs usage;
      exit 2
  in
  let seed = Int64.of_int !seed and small = !small and seconds = !seconds in
  let results_dir = !results_dir in
  Printf.printf "workload %s  seed %Ld  seconds %g  trace %d%s\n%!" !workload seed seconds !trace
    (if small then "  (small corpus)" else "");
  let metrics, file, extra =
    if !trace = 0 then begin
      let metrics, details = end_to_end w ~small ~seed ~seconds ~results_dir in
      print_endline "end-to-end:";
      List.iter print_metric metrics;
      (metrics, !workload ^ ".json", details)
    end
    else begin
      let metrics, server, layers, details = traced_run w ~small ~seed ~seconds ~results_dir in
      print_endline "per layer (p50 per session, share of session time):";
      List.iter
        (fun (name, p50, share, n) ->
          Printf.printf "  %-24s %10.3f ms %6.1f%%  (%d sessions)\n" name (ms p50)
            (share *. 100.) n)
        layers;
      print_endline "per-layer metrics:";
      List.iter print_metric metrics;
      if server <> [] then begin
        print_endline "server:";
        List.iter print_metric server
      end;
      (metrics, !workload ^ "-trace.json", details)
    end
  in
  let correct = !failed = 0 && !problems = [] in
  write_json
    (Filename.concat results_dir file)
    (Json.Obj
       ([
          ("schema", Json.Str "deflection-e2e/1");
          ("workload", Json.Str !workload);
          ("seed", Json.Str (Int64.to_string seed));
          ("seconds", Json.Float seconds);
          ("small", Json.Bool small);
          ("correct", Json.Bool correct);
          ("attempted", Json.Int !attempted);
          ("failed", Json.Int !failed);
          ("problems", Json.List (List.rev_map (fun p -> Json.Str p) !problems));
          ("metrics", metrics_json metrics);
        ]
       @ extra));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", metrics_json metrics);
          ]));
  if not correct then exit 1
