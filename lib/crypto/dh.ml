type group = { p : Mersenne.modulus; g : Mersenne.t }

let mersenne k =
  let p = Mersenne.modulus k in
  { p; g = Mersenne.of_int p 3 }

let default_group = mersenne 521
let test_group = mersenne 127

type keypair = { secret : Mersenne.t; public : Mersenne.t }

let generate ?(group = default_group) prng =
  let secret = Mersenne.random group.p prng in
  { secret; public = Mersenne.pow group.p group.g secret }

let shared_secret ?(group = default_group) kp their_public =
  let shared = Mersenne.pow group.p their_public kp.secret in
  Sha256.digest (Mersenne.to_bytes_be shared)
