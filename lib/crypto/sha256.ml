(* SHA-256 over native ints holding 32-bit words. Sums and rotations may
   carry bits above bit 31 (and wrap mod 2^63, a multiple of 2^32); each
   word is masked to 32 bits once, where it is stored, which leaves the
   same low 32 bits as masking every step. *)

let mask = 0xFFFFFFFF
let rotr x n = (x lsr n) lor (x lsl (32 - n))

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  h : int array; (* 8 state words *)
  block : bytes; (* the partial block: [fill] bytes not yet compressed *)
  w : int array; (* 64-entry message schedule — per-context, NOT module
                    global: contexts hash concurrently on separate
                    domains (the gateway's parallel session fan-out), and
                    a shared schedule silently corrupts every digest
                    computed during an overlap *)
  mutable fill : int;
  mutable total : int; (* total message bytes *)
}

let init () =
  {
    h =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    block = Bytes.create 64;
    w = Array.make 64 0;
    fill = 0;
    total = 0;
  }

(* Compresses the 64 bytes of [src] from [off]. *)
let compress ctx src off =
  let w = ctx.w in
  for i = 0 to 15 do
    let o = off + (4 * i) in
    w.(i) <- (Bytes.get_uint16_be src o lsl 16) lor Bytes.get_uint16_be src (o + 2)
  done;
  for i = 16 to 63 do
    let x = w.(i - 15) and y = w.(i - 2) in
    let s0 = rotr x 7 lxor rotr x 18 lxor (x lsr 3) in
    let s1 = rotr y 17 lxor rotr y 19 lxor (y lsr 10) in
    w.(i) <- (w.(i - 16) + s0 + w.(i - 7) + s1) land mask
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ve = !e and va = !a in
    let s1 = rotr ve 6 lxor rotr ve 11 lxor rotr ve 25 in
    let ch = (ve land !f) lxor (lnot ve land !g) in
    let t1 = !hh + s1 + ch + k.(i) + w.(i) in
    let s0 = rotr va 2 lxor rotr va 13 lxor rotr va 22 in
    let maj = (va land !b) lxor (va land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := ve;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := va;
    a := (t1 + s0 + maj) land mask
  done;
  let add i v = h.(i) <- (h.(i) + v) land mask in
  add 0 !a;
  add 1 !b;
  add 2 !c;
  add 3 !d;
  add 4 !e;
  add 5 !f;
  add 6 !g;
  add 7 !hh

(* Full blocks compress straight from [data]; only a partial tail is
   copied into [ctx.block]. [data] is only read, never written, which is
   what lets strings pass in without a copy. *)
let update ctx data =
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.fill > 0 then begin
    pos := min (64 - ctx.fill) len;
    Bytes.blit data 0 ctx.block ctx.fill !pos;
    ctx.fill <- ctx.fill + !pos;
    if ctx.fill = 64 then begin
      compress ctx ctx.block 0;
      ctx.fill <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos ctx.block ctx.fill (len - !pos);
    ctx.fill <- ctx.fill + (len - !pos)
  end

let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* One padding step: 0x80, zeros up to byte 56 of the last block (a block
   of its own when the tail leaves no room), then the bit length. *)
let finalize ctx =
  let b = ctx.block and fill = ctx.fill in
  Bytes.set b fill '\x80';
  if fill >= 56 then begin
    Bytes.fill b (fill + 1) (63 - fill) '\x00';
    compress ctx b 0;
    Bytes.fill b 0 56 '\x00'
  end
  else Bytes.fill b (fill + 1) (55 - fill) '\x00';
  Bytes.set_int64_be b 56 (Int64.mul (Int64.of_int ctx.total) 8L);
  compress ctx b 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_uint16_be out (4 * i) (ctx.h.(i) lsr 16);
    Bytes.set_uint16_be out ((4 * i) + 2) (ctx.h.(i) land 0xffff)
  done;
  out

let digest data =
  let ctx = init () in
  update ctx data;
  finalize ctx

let digest_string s = digest (Bytes.unsafe_of_string s)

let hex_digest_string s = Deflection_util.Hex.encode (digest_string s)
