(* Little-endian limbs of 26 bits, n = ceil(k/26) of them. Between
   operations a value may lie anywhere in [0, 2^(26n)), each limb below
   2^26; [canonical] brings it below p only where it leaves the module.

   Limb bound: a column of a product sums at most n products of two limbs,
   so it stays below n * 2^52 <= 2^61 while n <= 512 ([modulus] enforces
   it). The carry out of a column is then below 2^36 and a folded limb
   below 2^(26+25), so a column with its carry and folded limb, and a
   carry that re-enters at limb 0 as c * 2^fold, all stay under 2^62,
   inside OCaml's 63-bit ints. *)

let bits = 26
let mask = (1 lsl bits) - 1

(* [fold] = 26n - k, because 2^(26n) = 2^fold (mod 2^k - 1). *)
type modulus = { k : int; n : int; fold : int }
type t = int array

let modulus k =
  if k < 2 || k > bits * 512 then invalid_arg "Mersenne.modulus: k out of range";
  let n = (k + bits - 1) / bits in
  { k; n; fold = (bits * n) - k }

let check m x = if Array.length x <> m.n then invalid_arg "Mersenne: element of another modulus"

(* Adds [c] at limb 0 and carries upwards in place; a carry out of the top
   limb comes back in at limb 0 as c * 2^fold. *)
let rec wrap m x c =
  let c = ref c and i = ref 0 in
  while !c <> 0 && !i < m.n do
    let v = x.(!i) + !c in
    x.(!i) <- v land mask;
    c := v lsr bits;
    incr i
  done;
  if !c <> 0 then wrap m x (!c lsl m.fold)

(* [c] holds the 2n column sums of a product; writes it mod p into [dst].
   The high half is carried first: it is below 2^(26n), so nothing carries
   out of its top. Each high limb then folds onto the limb n below it in
   the one carry pass over the low half. *)
let reduce m c dst =
  let n = m.n in
  let carry = ref 0 in
  for j = n to (2 * n) - 1 do
    let v = c.(j) + !carry in
    c.(j) <- v land mask;
    carry := v lsr bits
  done;
  carry := 0;
  for i = 0 to n - 1 do
    let v = c.(i) + (c.(n + i) lsl m.fold) + !carry in
    dst.(i) <- v land mask;
    carry := v lsr bits
  done;
  wrap m dst (!carry lsl m.fold)

(* [dst] may be [a] or [b]: both are read in full before [dst] is written. *)
let mul_into m c dst a b =
  let n = m.n in
  Array.fill c 0 (2 * n) 0;
  for i = 0 to n - 1 do
    let ai = a.(i) in
    for j = 0 to n - 1 do
      c.(i + j) <- c.(i + j) + (ai * b.(j))
    done
  done;
  reduce m c dst

let sqr_into m c dst a =
  let n = m.n in
  Array.fill c 0 (2 * n) 0;
  for i = 0 to n - 1 do
    let ai = a.(i) in
    c.(2 * i) <- c.(2 * i) + (ai * ai);
    let twice = 2 * ai in
    for j = i + 1 to n - 1 do
      c.(i + j) <- c.(i + j) + (twice * a.(j))
    done
  done;
  reduce m c dst

(* In place, from [0, 2^(26n)) to [0, p): fold the bits from k upwards
   onto the bottom twice (the second fold moves at most a single 1), then
   map p itself to 0. *)
let canonical m x =
  let top = m.n - 1 in
  let r = m.k - (bits * top) in
  for _ = 1 to 2 do
    let hi = x.(top) lsr r in
    x.(top) <- x.(top) land ((1 lsl r) - 1);
    wrap m x hi
  done;
  let is_p = ref (x.(top) = (1 lsl r) - 1) in
  for i = 0 to top - 1 do
    if x.(i) <> mask then is_p := false
  done;
  if !is_p then Array.fill x 0 m.n 0

let mul m a b =
  check m a;
  check m b;
  let x = Array.make m.n 0 in
  mul_into m (Array.make (2 * m.n) 0) x a b;
  canonical m x;
  x

let sqr m a =
  check m a;
  let x = Array.make m.n 0 in
  sqr_into m (Array.make (2 * m.n) 0) x a;
  canonical m x;
  x

(* The [w] <= 26 bits of [x] from bit [pos] upwards. *)
let bits_at x pos w =
  let i = pos / bits and off = pos mod bits in
  let v = x.(i) lsr off in
  let v = if off > bits - w && i + 1 < Array.length x then v lor (x.(i + 1) lsl (bits - off)) else v in
  v land ((1 lsl w) - 1)

(* Left to right, a fixed 4-bit window: four squarings per window, then one
   multiply by the table entry base^digit unless the digit is 0. *)
let pow m base e =
  check m base;
  check m e;
  let c = Array.make (2 * m.n) 0 in
  let table = Array.make 16 base in
  table.(0) <- Array.init m.n (fun i -> if i = 0 then 1 else 0);
  for d = 2 to 15 do
    let x = Array.make m.n 0 in
    mul_into m c x table.(d - 1) base;
    table.(d) <- x
  done;
  let top = (m.k - 1) / 4 in
  let acc = Array.copy table.(bits_at e (4 * top) 4) in
  for w = top - 1 downto 0 do
    for _ = 1 to 4 do
      sqr_into m c acc acc
    done;
    let d = bits_at e (4 * w) 4 in
    if d <> 0 then mul_into m c acc acc table.(d)
  done;
  canonical m acc;
  acc

(* Horner over the bytes: x <- 256x + byte, folding the carry out of the
   top limb back in. *)
let of_bytes_be m data =
  let x = Array.make m.n 0 in
  Bytes.iter
    (fun ch ->
      let carry = ref (Char.code ch) in
      for i = 0 to m.n - 1 do
        let v = (x.(i) lsl 8) + !carry in
        x.(i) <- v land mask;
        carry := v lsr bits
      done;
      wrap m x (!carry lsl m.fold))
    data;
  canonical m x;
  x

let of_int m v =
  if v < 0 then invalid_arg "Mersenne.of_int: negative";
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 (Int64.of_int v);
  of_bytes_be m b

let to_bytes_be x =
  let len = ref (((bits * Array.length x) + 7) / 8) in
  while !len > 1 && bits_at x (8 * (!len - 1)) 8 = 0 do
    decr len
  done;
  Bytes.init !len (fun i -> Char.chr (bits_at x (8 * (!len - 1 - i)) 8))

let rec random m prng =
  let x = of_bytes_be m (Deflection_util.Prng.bytes prng ((m.k + 7) / 8)) in
  if Array.for_all (( = ) 0) x then random m prng else x
