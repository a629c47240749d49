module C = Deflection_crypto
module Hex = Deflection_util.Hex
module Prng = Deflection_util.Prng

(* FIPS 180-4 / RFC test vectors *)
let test_sha256_vectors () =
  let cases =
    [
      ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
      ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
      ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
      ( String.make 1000000 'a',
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
    ]
  in
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string) "digest" expect (C.Sha256.hex_digest_string input))
    cases

let test_sha256_incremental () =
  let whole = C.Sha256.digest_string "the quick brown fox jumps over the lazy dog" in
  let ctx = C.Sha256.init () in
  C.Sha256.update_string ctx "the quick brown fox";
  C.Sha256.update_string ctx " jumps over";
  C.Sha256.update_string ctx " the lazy dog";
  Alcotest.(check bytes) "incremental = one-shot" whole (C.Sha256.finalize ctx)

(* A 300-byte message fed in two and in three pieces, at every split
   point, hashes to the one-shot digest. *)
let test_sha256_splits () =
  let msg = Prng.bytes (Prng.create 59L) 300 in
  let whole = C.Sha256.digest msg in
  let n = Bytes.length msg in
  for i = 0 to n do
    let ctx = C.Sha256.init () in
    C.Sha256.update ctx (Bytes.sub msg 0 i);
    C.Sha256.update_string ctx (Bytes.sub_string msg i (n - i));
    Alcotest.(check bytes) "two pieces" whole (C.Sha256.finalize ctx);
    for j = i to n do
      let ctx = C.Sha256.init () in
      C.Sha256.update_string ctx (Bytes.sub_string msg 0 i);
      C.Sha256.update ctx (Bytes.sub msg i (j - i));
      C.Sha256.update ctx (Bytes.sub msg j (n - j));
      if not (Bytes.equal whole (C.Sha256.finalize ctx)) then
        Alcotest.failf "three pieces split at %d and %d" i j
    done
  done

(* RFC 4231 *)
let test_hmac_vectors () =
  let t2 = C.Hmac.sha256_string ~key:"Jefe" "what do ya want for nothing?" in
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (Hex.encode t2);
  let key = Bytes.make 20 '\x0b' in
  let t1 = C.Hmac.sha256 ~key (Bytes.of_string "Hi There") in
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (Hex.encode t1)

let test_hmac_verify () =
  let key = Bytes.of_string "k" in
  let msg = Bytes.of_string "m" in
  let tag = C.Hmac.sha256 ~key msg in
  Alcotest.(check bool) "accepts" true (C.Hmac.verify ~key msg ~tag);
  Bytes.set tag 0 (Char.chr (Char.code (Bytes.get tag 0) lxor 1));
  Alcotest.(check bool) "rejects flipped tag" false (C.Hmac.verify ~key msg ~tag)

let test_hkdf_lengths () =
  let key = Bytes.make 32 'K' in
  let a = C.Hmac.hkdf ~key ~info:"x" 16 and b = C.Hmac.hkdf ~key ~info:"x" 48 in
  Alcotest.(check int) "len 16" 16 (Bytes.length a);
  Alcotest.(check int) "len 48" 48 (Bytes.length b);
  Alcotest.(check bytes) "prefix consistent" a (Bytes.sub b 0 16);
  let c = C.Hmac.hkdf ~key ~info:"y" 16 in
  Alcotest.(check bool) "info separates" false (Bytes.equal a c)

(* RFC 8439 section 2.3.2 *)
let test_chacha20_block () =
  let key = Hex.decode "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" in
  let nonce = Hex.decode "000000090000004a00000000" in
  let blk = C.Chacha20.block ~key ~nonce ~counter:1 in
  Alcotest.(check string) "first 16 bytes" "10f1e7e4d13b5915500fdd1fa32071c4"
    (String.sub (Hex.encode blk) 0 32)

let test_chacha20_involution () =
  let prng = Prng.create 9L in
  let key = Prng.bytes prng 32 and nonce = Prng.bytes prng 12 in
  let msg = Prng.bytes prng 300 in
  let ct = C.Chacha20.xor ~key ~nonce msg in
  Alcotest.(check bool) "ciphertext differs" false (Bytes.equal ct msg);
  Alcotest.(check bytes) "decrypts" msg (C.Chacha20.xor ~key ~nonce ct)

let test_dh_agreement () =
  let prng = Prng.create 77L in
  let g = C.Dh.test_group in
  let a = C.Dh.generate ~group:g prng and b = C.Dh.generate ~group:g prng in
  let sa = C.Dh.shared_secret ~group:g a b.C.Dh.public in
  let sb = C.Dh.shared_secret ~group:g b a.C.Dh.public in
  Alcotest.(check bytes) "shared secret agrees" sa sb;
  let c = C.Dh.generate ~group:g prng in
  let sc = C.Dh.shared_secret ~group:g c a.C.Dh.public in
  Alcotest.(check bool) "third party differs" false (Bytes.equal sa sc)

module M = C.Mersenne

let enc x = Hex.encode (M.to_bytes_be x)

(* Known answers recorded from the arbitrary-precision modexp that
   Mersenne replaced, in hex: Dh.generate's public value per PRNG seed,
   Dh.shared_secret per pair of seeds, and (a, x, a^x mod p) triples; m127
   is Dh.test_group (p = 2^127 - 1), m521 Dh.default_group. *)
let m127_publics = [
  (1L, "6c6e275713d3848ecc4f83c7eebafe40");
  (2L, "43de00488512093b773c189b7f1a8bef");
  (3L, "1565ba8902f03bc28560a982e4fd569a");
  (4L, "3e2a8b188dad9f56019360118b0d57f8");
  (5L, "23e5adfef7548705735220bd7ced295f");
  (6L, "4bc9c2c18af021fc20bc631d0af860d7");
  (7L, "20d0c97321a1c88eda0369ae920738d2");
  (8L, "3d51c3b716d395170e2f3dcbbc92f17c");
  (9L, "2ae4c0d5c551f2bb52830e4d024730d6");
  (10L, "11cb5d3d61b5399acc69312c28de07d3");
  (11L, "531028d818e0e3ab3152b744e4e4fc6e");
  (12L, "22859537326e73610f44dabdd286e6d5");
  (13L, "7b656833fdd86b24fd787a4d00d63dfa");
  (14L, "0e423c4bcf21a067d418bbff97827a74");
  (15L, "13227c47da9ea3ede353104fb7157e1e");
  (16L, "5a81c66c3dd639445b75c64be7b469af");
]
let m127_shared = [
  (102L, 103L, "399e8b52bdd7c880031f8ad19521c0deb492627d4877edca645bd40dba0ecaa6");
  (104L, 105L, "aebfab9536abc65580bd43e49479df82b97e0e43ce78e8ad8dc4b159f4c31502");
  (106L, 107L, "f51c013b5d8345fa12a230de08288bcda3ccc20157af2ebab361837ee911233d");
  (108L, 109L, "f1e24390c6a5badbc30de1290780ab66a654edafeab1800091c7992b8d0b9f70");
  (110L, 111L, "3c7013cbf262d49faee03b2c9673f4660245beccda711f498463b480a38f8774");
  (112L, 113L, "47f46af72f4905cb20bac3547caef53fbaadcaed8dd171a1c8d7ad4b9bdecad3");
  (114L, 115L, "905a24225b82f3ddfd55a45012c0a487350ca78c3ef26de61baef4edeee6cb4d");
  (116L, 117L, "dd2fce1c5d0eaae59e2c72eda08f6e5d2c02b7bb90d0dee56e8406235a506ed4");
]
let m127_pow = [
  ("02",
   "01",
   "02");
  ("03",
   "01",
   "03");
  ("7ffffffffffffffffffffffffffffffe",
   "01",
   "7ffffffffffffffffffffffffffffffe");
  ("56be51517111c8ca7ad8a9cfbec38596",
   "01",
   "56be51517111c8ca7ad8a9cfbec38596");
  ("02",
   "02",
   "04");
  ("03",
   "02",
   "09");
  ("7ffffffffffffffffffffffffffffffe",
   "02",
   "01");
  ("56be51517111c8ca7ad8a9cfbec38596",
   "02",
   "55e80e34c59e41f8c88c88567c1949c8");
  ("02",
   "40000000000000000000000000000000",
   "02");
  ("03",
   "40000000000000000000000000000000",
   "7ffffffffffffffffffffffffffffffc");
  ("7ffffffffffffffffffffffffffffffe",
   "40000000000000000000000000000000",
   "01");
  ("56be51517111c8ca7ad8a9cfbec38596",
   "40000000000000000000000000000000",
   "2941aeae8eee373585275630413c7a69");
  ("02",
   "7ffffffffffffffffffffffffffffffd",
   "40000000000000000000000000000000");
  ("03",
   "7ffffffffffffffffffffffffffffffd",
   "55555555555555555555555555555555");
  ("7ffffffffffffffffffffffffffffffe",
   "7ffffffffffffffffffffffffffffffd",
   "7ffffffffffffffffffffffffffffffe");
  ("56be51517111c8ca7ad8a9cfbec38596",
   "7ffffffffffffffffffffffffffffffd",
   "3dd3d031e811d0ff2dfbeff9972e6c21");
  ("02",
   "7ffffffffffffffffffffffffffffffe",
   "01");
  ("03",
   "7ffffffffffffffffffffffffffffffe",
   "01");
  ("7ffffffffffffffffffffffffffffffe",
   "7ffffffffffffffffffffffffffffffe",
   "01");
  ("56be51517111c8ca7ad8a9cfbec38596",
   "7ffffffffffffffffffffffffffffffe",
   "01");
]

let m521_publics = [
  (1L, "01213a9e16a286f5f305063b4c2ea1850daf0afb06de84c4fcb3b039255d2a3580f092518d06954184961acafcdb6fc22c5a5cc08ea5b53aad840028d673a7cff44c");
  (2L, "01bff71e687116037e7a222cd96bc0fa7698a2218f7a70e900aa7990ef0457f8f597b262879a73e2c2a40ac775129d03e16dbf798c6d2d2023494fa36e622d3e3f0b");
  (3L, "01900d62a8cafa21b759505f694bbe2a94953829724f5cbecc71711735d110ecc911d33910c6120a9743c5bc6a39015de74dc387f2e8ef422c9a6050c34131d062b3");
  (4L, "0da5a95a453d2ebf7631c8fd5c3fc44632a080e7a6cb6e9b7fd556166effa941a5f5b7fd319b5d08071d96b7490066baa94894caffce412b058fb2417394c5a38d");
  (5L, "0123cb59b1793c4c002368e1b9151bf1b2f5ca0c91e052bcedca5179241bb4b13c917df8d6c7307162c5c8f892c8ccb4b881356faead72c5e953a37dfdd161106091");
  (6L, "010e7b06d024ee1021d2fb66208d77301c115ac55cfdabac3a947f7ddf81639a1e8faa1339cc1c83caca878c5f8663fe4633f2ca865fabc1bfe21dd73de7887e184a");
  (7L, "35f68cac2e8a1d022fca3d598e20853f0b28591e83a8bd634957223d840f35508e7122e590f1690c2dab69cfeb3b43a8d7c896a3041ba01923ef8d51bb5f4a4e19");
  (8L, "fb0304096400730e2a996fbcbc1036abb6c96aba67b8dca409ce3ca630d69cc6ce3e36996fb4923c7e2368f70b5b28e1541f46aa62435d39d1e8351a690e08f3");
  (9L, "d9069d8732d7493a348349438af457b5c93c6b1b44976f5e5115d2eb4f713d5233c986ec01cf502eb9efd9d0e507e056a53a5caa0e380779b3f0c2bfe3d948a682");
  (10L, "010218f32b6c9f3532c7103190dc5b5340b5ea2c1e563140ccbef36f728a03d25456bd087ca4d0d19a2d4b8e8b0310ec45a104a854e13d269cff16510b37a3f6c387");
  (11L, "7f61607163692e83a4dfd906519ab43924a58a2b40aabd4b95d79c362ecf75ca20373dd4d3c621f11a57fcd157ad9446f79424d0d499b85dcff3fe519443075a8f");
  (12L, "01e7b371a6842f2df5bafc8c1722537d7138b748bf178d0b7d61b5fe7087d2c1ee5a58528ede755fda4a1877d0a36cd998b698eed7fb4992dd0f28c0ec6aedfbd893");
  (13L, "9523f7eb450d0dc9284cbe6f5e73f9e4f3103ee1a7495952464550de0c904da312383aef69d0eafb44564836115b74323d88c51be782897e415522b369401dbcc5");
  (14L, "014af8d2e61c373f5026bf3b352b20146cd6b1c83544a4438ef9ab1d73dfcb598b40b68c68d728987ef76acf80386672428235d3fb81c94e4307f8d9e6bdfa03f098");
  (15L, "016070041be6f5f37471017f74170905f11576b69fba72ba156c82403cd6038972a1e85ac1f76054f3a63089bf8ea327356ac2211075b678362d6f04460fd20985b8");
  (16L, "84ec010a8c256241e8b7287c631c130ec65c596b64aeb86ab7a7ac09498bb584168d311cadbe493f40d3f00d213a8e8595abfabe80acb78c71cb5692f40c1b353e");
]
let m521_shared = [
  (102L, 103L, "4ebaaddba65273f742d95e52cdf786a12a008b8169396cba90684290180339b0");
  (104L, 105L, "746a09e041ac6661a2e9e70e27fc2a449b942a413d73882d7d688f21b3ef3a87");
  (106L, 107L, "1d5864bd3c366ad4c41c60a577fc37caf0ed66d1794824960394e530fbc4bbcd");
  (108L, 109L, "e8cef27f87e97cf267fbbf20e222fe7cbac87dcbe8c87b0a7a297228f5c3ec97");
  (110L, 111L, "e73d1ad966c8796c471795db7575e1c29fd4a16a8d25a8624b362c02cffa4590");
  (112L, 113L, "4dac24bc9440b45bb32a94c43337c5ec458bc17896485cbb2843d3f4e3e654a2");
  (114L, 115L, "4393a61f212e08809ec05b3f10a95e6093f4d7b4f8cf0dcd666480ea803137b1");
  (116L, 117L, "7bded671bfaf3c4b88fad6d19d49a14c1fe2f8d32b3c4684b4951b08139ed4c3");
]
let m521_pow = [
  ("02",
   "01",
   "02");
  ("03",
   "01",
   "03");
  ("01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe");
  ("be51517111c8ca7ad8a9cfbec385955a3e5d367672c8bb380075c837ede5bd1fb3a3f953bb93b2c8c07772e458d04c3c3381faac7e64e5dbdb3c968eba1f0645f2",
   "01",
   "be51517111c8ca7ad8a9cfbec385955a3e5d367672c8bb380075c837ede5bd1fb3a3f953bb93b2c8c07772e458d04c3c3381faac7e64e5dbdb3c968eba1f0645f2");
  ("02",
   "02",
   "04");
  ("03",
   "02",
   "09");
  ("01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "02",
   "01");
  ("be51517111c8ca7ad8a9cfbec385955a3e5d367672c8bb380075c837ede5bd1fb3a3f953bb93b2c8c07772e458d04c3c3381faac7e64e5dbdb3c968eba1f0645f2",
   "02",
   "0120553d79378af23cd812c03494c86a77c8453a0e093653df60f2a118ea75162a21c0724227f402dc0b9f2d4dfaeb76631478bff570f133de83e730d7753a486f81");
  ("02",
   "010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
   "02");
  ("03",
   "010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffc");
  ("01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
   "01");
  ("be51517111c8ca7ad8a9cfbec385955a3e5d367672c8bb380075c837ede5bd1fb3a3f953bb93b2c8c07772e458d04c3c3381faac7e64e5dbdb3c968eba1f0645f2",
   "010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
   "0141aeae8eee373585275630413c7a6aa5c1a2c9898d3744c7ff8a37c8121a42e04c5c06ac446c4d373f888d1ba72fb3c3cc7e0553819b1a2424c3697145e0f9ba0d");
  ("02",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd",
   "010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000");
  ("03",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd",
   "015555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555555");
  ("01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe");
  ("be51517111c8ca7ad8a9cfbec385955a3e5d367672c8bb380075c837ede5bd1fb3a3f953bb93b2c8c07772e458d04c3c3381faac7e64e5dbdb3c968eba1f0645f2",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd",
   "01d1266c77cdee3c981859690b4023053a579101c68ec0423c9865bf508566f79d3aac64888f24cd2a6841a46c820938530fedd260db738aa9797506ebdd779452d4");
  ("02",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01");
  ("03",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01");
  ("01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01");
  ("be51517111c8ca7ad8a9cfbec385955a3e5d367672c8bb380075c837ede5bd1fb3a3f953bb93b2c8c07772e458d04c3c3381faac7e64e5dbdb3c968eba1f0645f2",
   "01fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe",
   "01");
]

let kat_groups =
  [
    (C.Dh.test_group, m127_publics, m127_shared, m127_pow);
    (C.Dh.default_group, m521_publics, m521_shared, m521_pow);
  ]

(* Every known answer as (expected, computed), in a fixed order. *)
let known_answers () =
  List.concat_map
    (fun ((g : C.Dh.group), publics, shared, pow) ->
      let gen seed = C.Dh.generate ~group:g (Prng.create seed) in
      let of_hex s = M.of_bytes_be g.C.Dh.p (Hex.decode s) in
      List.map (fun (seed, want) -> (want, enc (gen seed).C.Dh.public)) publics
      @ List.concat_map
          (fun (sa, sb, want) ->
            let a = gen sa and b = gen sb in
            [
              (want, Hex.encode (C.Dh.shared_secret ~group:g a b.C.Dh.public));
              (want, Hex.encode (C.Dh.shared_secret ~group:g b a.C.Dh.public));
            ])
          shared
      @ List.map (fun (a, x, want) -> (want, enc (M.pow g.C.Dh.p (of_hex a) (of_hex x)))) pow)
    kat_groups

let test_known_answers () =
  List.iter
    (fun (want, got) -> Alcotest.(check string) "known answer" want got)
    (known_answers ())

let test_known_answers_domains () =
  let sequential = known_answers () in
  let domains = List.init 4 (fun _ -> Domain.spawn known_answers) in
  List.iter
    (fun d ->
      Alcotest.(check (list (pair string string))) "domain = sequential" sequential (Domain.join d))
    domains

(* One RA-TLS handshake with the test helpers' seeds (platform 31, party
   PRNG 17, enclave PRNG 1, the bootstrap's default): the quote and a
   record sealed under the provider session, byte for byte. *)
let session_quote = "20000000f4f5d90a1f5c6bfb318ecc226be7797afe4d8f53910ce99a544773012d65a1a720000000f667ebb5697fb3c1a02b5eb5e3b2c8fbdbfc2d66472c74b876074df06ea9a9cb2000000018ae514dea3a24e07f6d32c7c48f4fe7c5f784c9b8c87fbd06b44a10c81323d7"
let session_sealed = "00000000000000002a000000fa6e2af1ebd162150f966a92d498bea2f844de2de71841de4ab4ca2df3ece5203ae12e260f8a0fdaedaa47b60e0687ee2334020b5a7711572a3ecd51f7dd3ab8b80ba15dc5ce17e61536"

let test_session_golden () =
  let module A = Deflection_attestation.Attestation in
  let platform = A.Platform.create ~seed:31L in
  let measurement = C.Sha256.digest_string "session golden" in
  let role = A.Ratls.Code_provider in
  let hello, kp = A.Ratls.party_begin (Prng.create 17L) in
  let reply, _ = A.Ratls.enclave_accept (Prng.create 1L) ~platform ~measurement ~role hello in
  let party =
    Result.get_ok
      (A.Ratls.party_complete kp ~role ~ias:(A.Ias.for_platform platform)
         ~expected_measurement:measurement reply)
  in
  Alcotest.(check string) "quote" session_quote
    (Hex.encode (A.Quote.serialize reply.A.Ratls.quote));
  Alcotest.(check string) "sealed record" session_sealed
    (Hex.encode
       (C.Channel.seal party.A.Ratls.tx
          (Bytes.of_string "a fixed plaintext for the provider session")))

let fields = List.map (fun k -> (k, M.modulus k)) [ 127; 521 ]

(* Big-endian bytes of 2^k - 1 - d, for d < 256. *)
let p_minus k d =
  let len = (k + 7) / 8 in
  let b = Bytes.make len '\xff' in
  Bytes.set b 0 (Char.chr ((1 lsl (k - (8 * (len - 1)))) - 1));
  Bytes.set b (len - 1) (Char.chr (Char.code (Bytes.get b (len - 1)) - d));
  b

let test_fermat () =
  List.iter
    (fun (k, m) ->
      let prng = Prng.create 41L in
      let pm1 = M.of_bytes_be m (p_minus k 1) and pm2 = M.of_bytes_be m (p_minus k 2) in
      for _ = 1 to 200 do
        let a = M.random m prng in
        Alcotest.(check string) "a^(p-1) = 1" "01" (enc (M.pow m a pm1));
        Alcotest.(check string) "a^(p-2) a = 1" "01" (enc (M.mul m (M.pow m a pm2) a))
      done)
    fields

(* Big-endian sum of two equal-length byte strings, one byte longer. *)
let add_be a b =
  let n = Bytes.length a in
  let out = Bytes.create (n + 1) in
  let carry = ref 0 in
  for i = n - 1 downto 0 do
    let s = Char.code (Bytes.get a i) + Char.code (Bytes.get b i) + !carry in
    Bytes.set out (i + 1) (Char.chr (s land 0xff));
    carry := s lsr 8
  done;
  Bytes.set out 0 (Char.chr !carry);
  out

let test_exponent_addition () =
  List.iter
    (fun (k, m) ->
      let prng = Prng.create 43L in
      (* x, y < 2^(k-1), so x + y < p *)
      let len = ((k + 7) / 8) - 1 in
      for _ = 1 to 50 do
        let a = M.random m prng in
        let xb = Prng.bytes prng len and yb = Prng.bytes prng len in
        let pow_of b = M.pow m a (M.of_bytes_be m b) in
        Alcotest.(check string) "a^(x+y) = a^x a^y"
          (enc (pow_of (add_be xb yb)))
          (enc (M.mul m (pow_of xb) (pow_of yb)))
      done)
    fields

let test_mul_laws () =
  List.iter
    (fun (_, m) ->
      let prng = Prng.create 47L in
      for _ = 1 to 200 do
        let a = M.random m prng and b = M.random m prng and c = M.random m prng in
        Alcotest.(check string) "sqr a = a a" (enc (M.mul m a a)) (enc (M.sqr m a));
        Alcotest.(check string) "(ab)c = a(bc)"
          (enc (M.mul m a (M.mul m b c)))
          (enc (M.mul m (M.mul m a b) c))
      done)
    fields

let test_basics () =
  List.iter
    (fun (k, m) ->
      Alcotest.(check string) "of_int" "075bcd15" (enc (M.of_int m 123456789));
      Alcotest.(check string) "leading zeros dropped" "01"
        (enc (M.of_bytes_be m (Bytes.of_string "\x00\x00\x01")));
      Alcotest.(check string) "p is 0" "00" (enc (M.of_bytes_be m (p_minus k 0)));
      let pm1 = M.of_bytes_be m (p_minus k 1) in
      Alcotest.(check string) "(p-1)(p-1) = 1" "01" (enc (M.mul m pm1 pm1)))
    fields

let test_bytes_roundtrip () =
  List.iter
    (fun (k, m) ->
      let roundtrip b = Alcotest.(check string) "round trip" (Hex.encode b) (enc (M.of_bytes_be m b)) in
      List.iter roundtrip [ Bytes.make 1 '\x00'; Bytes.make 1 '\x01'; p_minus k 1 ];
      (* minimal encodings shorter than ceil(k/8) bytes *)
      let prng = Prng.create 53L in
      for len = 1 to ((k + 7) / 8) - 1 do
        let b = Prng.bytes prng len in
        Bytes.set b 0 (Char.chr (1 + Prng.int prng 255));
        roundtrip b
      done)
    fields

let test_channel_roundtrip () =
  let prng = Prng.create 88L in
  let key = Prng.bytes prng 32 in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  List.iter
    (fun msg ->
      let m = Bytes.of_string msg in
      Alcotest.(check bytes) "roundtrip" m (C.Channel.open_ rx (C.Channel.seal tx m)))
    [ "alpha"; ""; "gamma with a longer payload ....." ]

let test_channel_tamper () =
  let key = Bytes.make 32 'T' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let record = C.Channel.seal tx (Bytes.of_string "secret") in
  Bytes.set record 14 (Char.chr (Char.code (Bytes.get record 14) lxor 0x40));
  Alcotest.check_raises "tampered record" C.Channel.Auth_failure (fun () ->
      ignore (C.Channel.open_ rx record))

let test_channel_replay () =
  let key = Bytes.make 32 'R' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let r1 = C.Channel.seal tx (Bytes.of_string "one") in
  ignore (C.Channel.open_ rx r1);
  Alcotest.check_raises "replayed record" C.Channel.Auth_failure (fun () ->
      ignore (C.Channel.open_ rx r1))

let test_channel_reorder_rejected () =
  let key = Bytes.make 32 'S' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let r1 = C.Channel.seal tx (Bytes.of_string "first") in
  let r2 = C.Channel.seal tx (Bytes.of_string "second") in
  Alcotest.check_raises "out-of-order record" C.Channel.Auth_failure (fun () ->
      ignore (C.Channel.open_ rx r2));
  (* the in-order record still works afterwards *)
  Alcotest.(check bytes) "in-order ok" (Bytes.of_string "first") (C.Channel.open_ rx r1)

let test_channel_padding_uniform () =
  let key = Bytes.make 32 'P' in
  let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
  let r1 = C.Channel.seal_padded tx ~pad_to:512 (Bytes.of_string "a") in
  let r2 = C.Channel.seal_padded tx ~pad_to:512 (Bytes.make 400 'x') in
  Alcotest.(check int) "equal record sizes" (Bytes.length r1) (Bytes.length r2);
  Alcotest.(check bytes) "unpads 1" (Bytes.of_string "a") (C.Channel.open_padded rx r1);
  Alcotest.(check bytes) "unpads 2" (Bytes.make 400 'x') (C.Channel.open_padded rx r2)

let test_channel_pad_overflow () =
  let key = Bytes.make 32 'O' in
  let tx = C.Channel.create ~key in
  Alcotest.check_raises "too large"
    (Invalid_argument "Channel.seal_padded: plaintext exceeds pad size") (fun () ->
      ignore (C.Channel.seal_padded tx ~pad_to:4 (Bytes.make 5 'x')))

let qcheck_channel_roundtrip =
  QCheck.Test.make ~name:"channel seal/open roundtrip" ~count:100 QCheck.string (fun s ->
      let key = Bytes.make 32 'q' in
      let tx = C.Channel.create ~key and rx = C.Channel.create ~key in
      Bytes.to_string (C.Channel.open_ rx (C.Channel.seal tx (Bytes.of_string s))) = s)

let suite =
  [
    Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
    Alcotest.test_case "sha256 incremental" `Quick test_sha256_incremental;
    Alcotest.test_case "sha256 every split point" `Quick test_sha256_splits;
    Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
    Alcotest.test_case "hmac verify" `Quick test_hmac_verify;
    Alcotest.test_case "hkdf lengths" `Quick test_hkdf_lengths;
    Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block;
    Alcotest.test_case "chacha20 involution" `Quick test_chacha20_involution;
    Alcotest.test_case "dh agreement" `Quick test_dh_agreement;
    Alcotest.test_case "dh known answers" `Quick test_known_answers;
    Alcotest.test_case "dh known answers on 4 domains" `Quick test_known_answers_domains;
    Alcotest.test_case "ratls session golden" `Quick test_session_golden;
    Alcotest.test_case "mersenne fermat" `Quick test_fermat;
    Alcotest.test_case "mersenne exponent addition" `Quick test_exponent_addition;
    Alcotest.test_case "mersenne sqr, mul associative" `Quick test_mul_laws;
    Alcotest.test_case "mersenne basics" `Quick test_basics;
    Alcotest.test_case "mersenne bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "channel roundtrip" `Quick test_channel_roundtrip;
    Alcotest.test_case "channel tamper" `Quick test_channel_tamper;
    Alcotest.test_case "channel replay" `Quick test_channel_replay;
    Alcotest.test_case "channel reorder rejected" `Quick test_channel_reorder_rejected;
    Alcotest.test_case "channel padding uniform" `Quick test_channel_padding_uniform;
    Alcotest.test_case "channel pad overflow" `Quick test_channel_pad_overflow;
    QCheck_alcotest.to_alcotest qcheck_channel_roundtrip;
  ]
