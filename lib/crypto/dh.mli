(** Diffie–Hellman key agreement over a Mersenne-prime group.

    The paper's key agreement (Section III-A) negotiates shared session keys
    between the bootstrap enclave and each remote party after attestation.
    We use the Mersenne prime M521 = 2^521 - 1 as the default modulus — the
    simulation needs an honest implementation of the protocol, not
    production-grade parameters (documented in DESIGN.md). *)

type group = { p : Mersenne.modulus; g : Mersenne.t }

val default_group : group
(** p = 2^521 - 1, g = 3. *)

val test_group : group
(** p = 2^127 - 1 — a small group to keep unit tests fast. *)

type keypair = { secret : Mersenne.t; public : Mersenne.t }

val generate : ?group:group -> Deflection_util.Prng.t -> keypair
val shared_secret : ?group:group -> keypair -> Mersenne.t -> bytes
(** [shared_secret kp their_public] is the 32-byte session key material:
    SHA-256 of the minimal big-endian encoding of the DH shared value. *)
