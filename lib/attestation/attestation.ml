module Sha256 = Deflection_crypto.Sha256
module Hmac = Deflection_crypto.Hmac
module Channel = Deflection_crypto.Channel
module Dh = Deflection_crypto.Dh
module Mersenne = Deflection_crypto.Mersenne
module B = Deflection_util.Bytebuf
module Telemetry = Deflection_telemetry.Telemetry

module Quote = struct
  type t = { measurement : bytes; report_data : bytes; signature : bytes }

  let serialize t =
    let buf = B.create () in
    B.u32 buf (Bytes.length t.measurement);
    B.raw buf t.measurement;
    B.u32 buf (Bytes.length t.report_data);
    B.raw buf t.report_data;
    B.u32 buf (Bytes.length t.signature);
    B.raw buf t.signature;
    B.contents buf

  let deserialize bytes =
    try
      let r = B.Reader.of_bytes bytes in
      let measurement = B.Reader.raw r (B.Reader.u32 r) in
      let report_data = B.Reader.raw r (B.Reader.u32 r) in
      let signature = B.Reader.raw r (B.Reader.u32 r) in
      Ok { measurement; report_data; signature }
    with
    | B.Reader.Truncated -> Error "truncated quote"
    | Invalid_argument m -> Error ("malformed quote: " ^ m)
end

module Platform = struct
  type t = { attestation_key : bytes }

  let create ~seed =
    let prng = Deflection_util.Prng.create seed in
    { attestation_key = Deflection_util.Prng.bytes prng 32 }

  (* The enclave sealing key (EGETKEY stand-in): derived from the
     platform root so data sealed to the untrusted host — audit-log MACs,
     persisted verdicts — is bound to this platform and nothing else. *)
  let sealing_key t = Hmac.hkdf ~key:t.attestation_key ~info:"DEFLECTION-sealing-v1" 32

  let signing_body ~measurement ~report_data =
    let buf = B.create () in
    B.string buf "DEFLECTION-QUOTE-v1";
    B.u32 buf (Bytes.length measurement);
    B.raw buf measurement;
    B.u32 buf (Bytes.length report_data);
    B.raw buf report_data;
    B.contents buf

  let quote t ~measurement ~report_data =
    let body = signing_body ~measurement ~report_data in
    {
      Quote.measurement;
      report_data;
      signature = Hmac.sha256 ~key:t.attestation_key body;
    }
end

module Ias = struct
  type t = { key : bytes }

  let for_platform (p : Platform.t) = { key = p.Platform.attestation_key }

  type report = { ok : bool; measurement : bytes; report_data : bytes }

  let verify t (q : Quote.t) =
    let body =
      Platform.signing_body ~measurement:q.Quote.measurement ~report_data:q.Quote.report_data
    in
    {
      ok = Hmac.verify ~key:t.key body ~tag:q.Quote.signature;
      measurement = q.Quote.measurement;
      report_data = q.Quote.report_data;
    }
end

module Ratls = struct
  type role = Data_owner | Code_provider

  let role_label = function Data_owner -> "data-owner" | Code_provider -> "code-provider"

  type hello = { party_public : Mersenne.t }
  type reply = { quote : Quote.t; enclave_public : Mersenne.t }
  type session = { tx : Channel.t; rx : Channel.t }

  let report_data_for ~enclave_public ~role =
    let ctx = Sha256.init () in
    Sha256.update_string ctx "RA-TLS-binding:";
    Sha256.update ctx (Mersenne.to_bytes_be enclave_public);
    Sha256.update_string ctx (":" ^ role_label role);
    Sha256.finalize ctx

  let sessions_of_secret ~secret ~role ~enclave_side =
    let to_party = Channel.derive_directional ~key:secret ~label:("enclave->" ^ role_label role) in
    let to_enclave = Channel.derive_directional ~key:secret ~label:(role_label role ^ "->enclave") in
    if enclave_side then { tx = Channel.create ~key:to_party; rx = Channel.create ~key:to_enclave }
    else { tx = Channel.create ~key:to_enclave; rx = Channel.create ~key:to_party }

  let party_begin prng =
    let kp = Dh.generate prng in
    ({ party_public = kp.Dh.public }, kp)

  let enclave_accept ?(tm = Telemetry.disabled) prng ~platform ~measurement ~role hello =
    Telemetry.span tm "attest.accept" @@ fun () ->
    let kp = Dh.generate prng in
    let report_data = report_data_for ~enclave_public:kp.Dh.public ~role in
    let quote = Platform.quote platform ~measurement ~report_data in
    let secret = Dh.shared_secret kp hello.party_public in
    let session = sessions_of_secret ~secret ~role ~enclave_side:true in
    ({ quote; enclave_public = kp.Dh.public }, session)

  let party_complete ?(tm = Telemetry.disabled) kp ~role ~ias ~expected_measurement
      (reply : reply) =
    Telemetry.span tm "attest.complete" @@ fun () ->
    let fail detail =
      if Telemetry.tracing tm then
        Telemetry.event tm "attest.failure"
          ~args:[ ("role", role_label role); ("detail", detail) ];
      Error detail
    in
    let report = Ias.verify ias reply.quote in
    if not report.Ias.ok then fail "attestation service rejected the quote"
    else if not (Bytes.equal report.Ias.measurement expected_measurement) then
      fail "enclave measurement does not match the agreed bootstrap enclave"
    else begin
      let expected_rd = report_data_for ~enclave_public:reply.enclave_public ~role in
      if not (Bytes.equal report.Ias.report_data expected_rd) then
        fail "quote is not bound to this key exchange"
      else begin
        let secret = Dh.shared_secret kp reply.enclave_public in
        Ok (sessions_of_secret ~secret ~role ~enclave_side:false)
      end
    end
end
