(* The traced run: one admission rebuilt from the public calls that
   [Session.run] makes, in the same order and with the same configuration,
   each wrapped in a span recorded here rather than inside the program.

   After the delivery ECall returns, its parts (channel open, objfile
   parse, load, verify, imm rewrite) are replayed on the same sealed bytes
   under a [deliver.replica] span. The replica is excluded from the
   session's duration, so it does not inflate it, and comparing the parts
   with the ECall shows how much of the ECall they leave unexplained. *)

module Bootstrap = Deflection.Bootstrap
module Service = Deflection.Service
module Client = Deflection.Client
module Attestation = Deflection_attestation.Attestation
module Ratls = Attestation.Ratls
module Channel = Deflection_crypto.Channel
module Dh = Deflection_crypto.Dh
module Objfile = Deflection_isa.Objfile
module Loader = Deflection_loader.Loader
module Memory = Deflection_enclave.Memory
module Layout = Deflection_enclave.Layout
module Manifest = Deflection_policy.Manifest
module Policy = Deflection_policy.Policy
module Verifier = Deflection_verifier.Verifier
module Interp = Deflection_runtime.Interp
module Telemetry = Deflection_telemetry.Telemetry
module Prng = Deflection_util.Prng

type span = {
  sid : int;  (** the session the span belongs to *)
  id : int;
  parent : int;  (** -1 for a session root *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type recorder = {
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next_id : int;
  mutable sid : int;  (** the session being recorded *)
}

let recorder () = { spans = []; stack = []; next_id = 0; sid = 0 }

let span r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.stack with p :: _ -> p | [] -> -1 in
  r.stack <- id :: r.stack;
  let start_ns = Monotonic_clock.now () in
  match f () with
  | v ->
    let stop_ns = Monotonic_clock.now () in
    r.stack <- List.tl r.stack;
    r.spans <- { sid = r.sid; id; parent; name; start_ns; stop_ns } :: r.spans;
    v
  | exception e ->
    (* a failed call leaves no span *)
    r.stack <- List.tl r.stack;
    raise e

let duration s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9

exception Failed of string

let ok_or what pp = function
  | Ok v -> v
  | Error e -> raise (Failed (Format.asprintf "%s: %a" what pp e))
let ok_or_string what = ok_or what Format.pp_print_string

(* What the oracle and the determinism checks need from one admission. *)
type result = {
  exit : Interp.exit_reason;
  outputs : string list;
  instructions : int;
  cycles : int;
  instructions_checked : int;
  imms_rewritten : int;
  objfile_bytes : int;
}

let replicate r ~(config : Corpus.config) ~tm ~policies ~kp ~(reply : Ratls.reply) sealed =
  let key =
    Channel.derive_directional
      ~key:(Dh.shared_secret kp reply.Ratls.enclave_public)
      ~label:(Ratls.role_label Ratls.Code_provider ^ "->enclave")
  in
  let rx = Channel.create ~key in
  let plain = span r "channel.open_binary" (fun () -> Channel.open_ rx sealed) in
  let obj =
    span r "objfile.parse" (fun () -> Objfile.deserialize plain) |> ok_or_string "replica parse"
  in
  let mem = Memory.create (Layout.make config.Corpus.layout) in
  let loaded =
    span r "loader.load" (fun () ->
        Loader.load ~tm mem ~aex_threshold:config.Corpus.manifest.Manifest.aex_threshold obj)
    |> ok_or "replica load" Loader.pp_error
  in
  let report, _ =
    span r "verifier.verify" (fun () ->
        Verifier.verify_mode ~tm ~mode:config.Corpus.verification ~policies
          ~ssa_q:obj.Objfile.ssa_q obj)
    |> ok_or "replica verify" Verifier.pp_rejection
  in
  let imms =
    span r "loader.rewrite" (fun () -> Loader.rewrite_imms ~tm mem loaded ~policies)
    |> ok_or "replica rewrite" Loader.pp_error
  in
  (Bytes.length plain, report, imms)

let session r ~(config : Corpus.config) ~seed (p : Corpus.program) =
  let policies = Policy.Set.p1_p6 in
  r.sid <- r.sid + 1;
  span r "session" @@ fun () ->
  (* [Session.run] threads a private enabled registry through every stage *)
  let tm = Telemetry.create () in
  let platform, ias =
    span r "platform" (fun () ->
        let platform = Attestation.Platform.create ~seed:(Int64.add seed 1000L) in
        (platform, Attestation.Ias.for_platform platform))
  in
  let enclave =
    span r "bootstrap.create" (fun () ->
        Bootstrap.create
          ~config:
            {
              Bootstrap.layout = config.Corpus.layout;
              manifest = config.Corpus.manifest;
              interp = config.Corpus.interp;
              policies;
              verification = config.Corpus.verification;
              seed;
              oram_capacity = None;
              verifier_cache = None;
              audit = None;
            }
          ~tm ~platform ())
  in
  let expected_measurement = Bootstrap.measurement enclave in
  let attest ~role salt =
    span r
      (match role with
      | Ratls.Code_provider -> "attest.provider"
      | Ratls.Data_owner -> "attest.owner")
    @@ fun () ->
    let prng = Prng.create (Int64.add seed salt) in
    let hello, kp = span r "attest.begin" (fun () -> Ratls.party_begin prng) in
    let reply = span r "attest.accept" (fun () -> Bootstrap.accept_party enclave ~role hello) in
    let quote =
      Attestation.Quote.deserialize (Attestation.Quote.serialize reply.Ratls.quote)
      |> ok_or_string "quote"
    in
    let reply = { reply with Ratls.quote } in
    let session =
      span r "attest.complete" (fun () ->
          Ratls.party_complete ~tm kp ~role ~ias ~expected_measurement reply)
      |> ok_or_string (Ratls.role_label role ^ " attestation")
    in
    (session, kp, reply)
  in
  let provider, kp, reply = attest ~role:Ratls.Code_provider 2000L in
  let obj =
    span r "frontend.compile" (fun () -> Service.build ~policies ~ssa_q:20 ~tm p.Corpus.source)
    |> ok_or "compile" Deflection_compiler.Frontend.pp_error
  in
  let sealed = span r "channel.seal_binary" (fun () -> Service.deliver provider obj) in
  let report, imms =
    span r "bootstrap.deliver" (fun () -> Bootstrap.ecall_receive_binary enclave sealed)
    |> ok_or "delivery" Bootstrap.pp_ecall_error
  in
  let objfile_bytes, replica_report, replica_imms =
    span r "deliver.replica" (fun () ->
        replicate r ~config ~tm ~policies ~kp ~reply sealed)
  in
  if replica_report <> report || replica_imms <> imms then
    raise (Failed "the delivery replica disagrees with the ECall");
  let owner, _, _ = attest ~role:Ratls.Data_owner 3000L in
  span r "channel.upload" (fun () ->
      List.iter
        (fun chunk ->
          Bootstrap.ecall_receive_userdata enclave (Client.seal_data owner chunk)
          |> ok_or "upload" Bootstrap.pp_ecall_error)
        p.Corpus.inputs);
  let stats =
    span r "bootstrap.run" (fun () -> Bootstrap.run enclave)
    |> ok_or "run" Bootstrap.pp_ecall_error
  in
  let outputs =
    span r "channel.decrypt" (fun () -> Client.open_outputs owner stats.Bootstrap.sealed_outputs)
    |> ok_or_string "decrypt"
  in
  {
    exit = stats.Bootstrap.exit;
    outputs = List.map Bytes.to_string outputs;
    instructions = stats.Bootstrap.instructions;
    cycles = stats.Bootstrap.cycles;
    instructions_checked = report.Verifier.instructions_checked;
    imms_rewritten = imms;
    objfile_bytes;
  }
