(* The programs each workload admits, the session configuration they run
   under, and the reference outputs every session is checked against.

   Every program is a pure function of the benchmark seed. The reference
   comes from the independent MiniC evaluator, never from the pipeline
   under test. *)

module Policy = Deflection_policy.Policy
module Manifest = Deflection_policy.Manifest
module Layout = Deflection_enclave.Layout
module Interp = Deflection_runtime.Interp
module Verifier = Deflection_verifier.Verifier
module Eval = Deflection_compiler.Eval
module Parser = Deflection_compiler.Parser
module Prng = Deflection_util.Prng
module Gen = Deflection_fuzz.Gen
module Server = Deflection_server.Server
module W = Deflection_workloads

type program = {
  name : string;
  source : string;
  inputs : bytes list;
  expected : Eval.outcome;
}

type config = {
  layout : Layout.config;
  manifest : Manifest.t;
  interp : Interp.config;
  verification : Verifier.mode;
}

let step_limit = 500_000_000

let oracle ~name ?prog ~inputs source =
  let prog = match prog with Some p -> p | None -> Parser.parse source in
  match Eval.run ~inputs ~step_limit prog with
  | Ok expected -> Ok { name; source; inputs; expected }
  | Error e -> Error (Format.asprintf "%s: reference evaluator: %a" name Eval.pp_error e)

let oracle_exn ~name ?prog ~inputs source =
  match oracle ~name ?prog ~inputs source with Ok p -> p | Error msg -> failwith msg

(* The Table II harness settings: AEXes every ~2M cycles on a benign
   platform, with an AEX budget long benchmarks cannot exhaust. *)
let exec_config =
  {
    layout = Layout.small_config;
    manifest = { Manifest.default with Manifest.aex_threshold = 10_000_000 };
    interp =
      { Interp.default_config with Interp.aex_interval = Some 2_000_000; colocated_prob = 1.0 };
    verification = Verifier.Descent;
  }

(* The 160-function services overflow the small layout's 64 KiB code
   region, so the admission corpus runs under the default layout. *)
let admit_config verification =
  {
    layout = Layout.default_config;
    manifest = Manifest.default;
    interp = Interp.default_config;
    verification;
  }

(* exec-apps: the ten nBench kernels plus the credit, genome and HTTPS
   applications. Execution dominates these sessions, so this is the
   workload on which an admission-path change must show no effect, and
   the HTTPS and generation rows exercise output sealing and decryption.
   [small] keeps the inputs tiny for the smoke test. *)
let exec_apps ~small ~seed =
  let scale full tiny = if small then tiny else full in
  let nbench =
    List.map
      (fun (b : W.Nbench.benchmark) ->
        oracle_exn ~name:b.W.Nbench.name ~inputs:[] b.W.Nbench.source)
      (if small then [ List.hd W.Nbench.all ] else W.Nbench.all)
  in
  let n_align = scale 200 24 in
  let fasta = W.Genome.fasta_input ~seed:(Prng.derive seed ~label:"fasta") ~n:n_align in
  let requests = scale 12 2 in
  nbench
  @ [
      oracle_exn ~name:"CREDIT SCORING" ~inputs:[] (W.Credit.source ~n:(scale 2000 20));
      oracle_exn ~name:"GENOME ALIGNMENT"
        ~inputs:[ Bytes.sub fasta 0 n_align; Bytes.sub fasta n_align n_align ]
        (W.Genome.alignment_source ~n:n_align);
      oracle_exn ~name:"GENOME GENERATION" ~inputs:[]
        (W.Genome.generation_source ~n:(scale 20000 400));
      oracle_exn ~name:"HTTPS"
        ~inputs:(List.init requests (fun _ -> W.Https.request_payload ~size:8192))
        (W.Https.handler_source ~requests);
    ]

(* Code-heavy, run-light service: [funcs] small annotated functions, each
   called once. [salt] varies a constant so that every binary has its own
   measurement. *)
let service_source ~funcs ~salt =
  let b = Buffer.create 8192 in
  for i = 0 to funcs - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "int f%d(int x) { int a[8]; a[x %% 8] = x + %d; a[(x + 1) %% 8] = a[x %% 8] * 3; \
          return a[x %% 8] + a[(x + 1) %% 8]; }\n"
         i (i + salt))
  done;
  Buffer.add_string b "int main() {\n  int s = 0;\n";
  for i = 0 to funcs - 1 do
    Buffer.add_string b (Printf.sprintf "  s = s + f%d(%d);\n" i i)
  done;
  Buffer.add_string b "  print_int(s);\n  return 0;\n}\n";
  Buffer.contents b

(* admit-*: 24 distinct binaries whose sessions are carried by compile,
   attestation, delivery and verification rather than execution: twelve
   generated programs (handshake-bound) and twelve services of 20 to 160
   functions (verification-bound). Generated programs the reference
   evaluator cannot finish are skipped, so every admission must succeed.

   The generated programs come from fixed generator seeds: their size and
   policy overhead vary so much from one draw to the next that a
   seed-drawn set would move every metric between runs. The benchmark
   seed varies the services' constants instead, and with them every
   binary's measurement. *)
let admit ~small ~seed =
  let rng = Prng.create (Prng.derive seed ~label:"admit") in
  let rec gen_programs acc k attempt =
    if k = 0 then List.rev acc
    else
      let g = Gen.generate ~seed:(Int64.of_int (attempt + 1)) in
      match
        oracle ~name:(Printf.sprintf "gen-%d" attempt) ~prog:g.Gen.prog ~inputs:g.Gen.inputs
          g.Gen.source
      with
      | Ok p -> gen_programs (p :: acc) (k - 1) (attempt + 1)
      | Error _ -> gen_programs acc k (attempt + 1)
  in
  let sizes = if small then [ 20 ] else [ 20; 40; 80; 160 ] in
  let services =
    List.concat_map
      (fun funcs ->
        List.init (if small then 1 else 3) (fun i ->
            oracle_exn
              ~name:(Printf.sprintf "service-%d-%d" funcs i)
              ~inputs:[]
              (service_source ~funcs ~salt:(Prng.int rng 1_000_000))))
      sizes
  in
  gen_programs [] (if small then 2 else 12) 0 @ services

(* serve-restart: the server's own deterministic open-loop schedule. Its
   programs are tiny, so attestation, gateway dispatch, the verdict
   cache, persistence and the audit log carry the load. *)
let serve_offered ~small = if small then 24 else 192
let serve_rounds ~small = if small then 3 else 12

(* The default server (4 tenants, one fuel-capped, batch 8, persistence
   every round, audit log on) with a queue of 16, so the schedule offers
   twice its capacity; the caller picks the state directory. It keeps the
   default single worker: with two, throughput on a shared two-core
   machine doubled whenever the other tenants left the second core free
   (41 to 87 sessions/s over ten consecutive runs), so a run measured the
   neighbours rather than the server. *)
let server_config ~seed = { Server.default_config with Server.queue_capacity = 16; seed }

(* what the server hands each session: the session defaults *)
let serve_config =
  {
    layout = Layout.small_config;
    manifest = Manifest.default;
    interp = Interp.default_config;
    verification = Verifier.Descent;
  }

(* The distinct programs the schedule's first round offers that must run
   to a clean exit, for the cycle-overhead baseline and the traced
   decomposition. The later rounds offer the same program shape with other
   constants. *)
let serve_programs ~small cfg =
  Server.Load.arrivals cfg ~offered:(serve_offered ~small) ~rounds:(serve_rounds ~small) ~round:0
  |> List.filter_map (fun (_, (job : Server.Gateway.job)) ->
         if job.Server.Gateway.compile_policies = None
            && Server.Load.expected_exit cfg job.Server.Gateway.label = Some 0
         then Some job.Server.Gateway.source
         else None)
  |> List.sort_uniq String.compare
  |> List.mapi (fun i source -> oracle_exn ~name:(Printf.sprintf "serve-%d" i) ~inputs:[] source)
