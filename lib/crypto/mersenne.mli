(** Arithmetic modulo a Mersenne number p = 2^k − 1, just what the
    Diffie–Hellman key agreement of the RA-TLS channel needs (the paper's
    key agreement procedure, Section III-A): p = 2^521 − 1 by default and
    2^127 − 1 in the unit tests.

    Values are held in a fixed width of ⌈k/26⌉ little-endian limbs of 26
    bits and are always reduced below p when they leave this module. No
    operation is constant-time. There is no state outside the arguments,
    so any number of domains may compute at once. *)

type modulus
type t

val modulus : int -> modulus
(** [modulus k] is 2^k − 1. Requires [2 <= k <= 13312] (at most 512
    limbs). *)

val of_int : modulus -> int -> t
(** Requires a non-negative argument; reduced mod p. *)

val mul : modulus -> t -> t -> t
val sqr : modulus -> t -> t

val pow : modulus -> t -> t -> t
(** [pow m a x] is a^x mod p, reading [x] as an integer in [\[0, p)]. *)

val of_bytes_be : modulus -> bytes -> t
(** Big-endian bytes of any length, reduced mod p. *)

val to_bytes_be : t -> bytes
(** The minimal big-endian encoding, at least one byte long. *)

val random : modulus -> Deflection_util.Prng.t -> t
(** A value in [\[1, p)]: ⌈k/8⌉ PRNG bytes read big-endian and reduced
    mod p, drawn again on zero. *)
