(** Remote attestation, modelled after SGX EPID attestation + the RA-TLS
    integration the paper adapts (Section V-B):

    - {!Platform} is the TEE hardware: it holds the platform attestation
      key and signs {!Quote}s over an enclave measurement and 32 bytes of
      report data;
    - {!Ias} is the attestation service that validates quotes (it shares
      the key registry with the platform, standing in for the EPID group
      signature scheme);
    - {!Ratls} runs the key-agreement procedure of Section III-A: the
      remote party sends a DH public key, the enclave replies with its own
      DH public key bound to a quote (report data = H(pubkey || role)),
      and both sides derive directional secure channels. The data owner
      and the code provider run separate handshakes under distinct
      roles. *)

module Quote : sig
  type t = { measurement : bytes; report_data : bytes; signature : bytes }

  val serialize : t -> bytes
  val deserialize : bytes -> (t, string) result
end

module Platform : sig
  type t

  val create : seed:int64 -> t
  val quote : t -> measurement:bytes -> report_data:bytes -> Quote.t

  val sealing_key : t -> bytes
  (** The platform's 32-byte sealing key (EGETKEY stand-in), derived from
      the platform root via HKDF. MACs data the enclave hands to the
      untrusted host (audit-log segments, persisted verdicts); two
      platforms created from different seeds never share it. *)
end

module Ias : sig
  type t

  val for_platform : Platform.t -> t

  type report = { ok : bool; measurement : bytes; report_data : bytes }

  val verify : t -> Quote.t -> report
end

module Ratls : sig
  type role = Data_owner | Code_provider

  val role_label : role -> string

  type hello = { party_public : Deflection_crypto.Mersenne.t }
  type reply = { quote : Quote.t; enclave_public : Deflection_crypto.Mersenne.t }

  (** Directional record channels; [tx] seals what this side sends. *)
  type session = { tx : Deflection_crypto.Channel.t; rx : Deflection_crypto.Channel.t }

  val party_begin : Deflection_util.Prng.t -> hello * Deflection_crypto.Dh.keypair

  val enclave_accept :
    ?tm:Deflection_telemetry.Telemetry.t ->
    Deflection_util.Prng.t ->
    platform:Platform.t ->
    measurement:bytes ->
    role:role ->
    hello ->
    reply * session
  (** [tm] gets an ["attest.accept"] span. *)

  val party_complete :
    ?tm:Deflection_telemetry.Telemetry.t ->
    Deflection_crypto.Dh.keypair ->
    role:role ->
    ias:Ias.t ->
    expected_measurement:bytes ->
    reply ->
    (session, string) result
  (** [tm] gets an ["attest.complete"] span; verification failures emit an
      ["attest.failure"] event. *)
end
