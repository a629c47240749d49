(* Little-endian limbs, base 2^26. 26 bits keeps products of two limbs plus
   carries comfortably inside OCaml's 63-bit native ints. *)

let limb_bits = 26
let limb_base = 1 lsl limb_bits
let limb_mask = limb_base - 1

type t = int array (* normalized: no most-significant zero limbs *)

let zero = [||]

let normalize a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int v =
  if v < 0 then invalid_arg "Bignum.of_int: negative";
  let rec limbs v acc = if v = 0 then List.rev acc else limbs (v lsr limb_bits) ((v land limb_mask) :: acc) in
  Array.of_list (limbs v [])

let one = of_int 1
let is_zero a = Array.length a = 0

let to_int_opt a =
  (* At most 2 full limbs plus a small third fit in a native int. *)
  if Array.length a > 3 then None
  else begin
    let v = ref 0 in
    let ok = ref true in
    for i = Array.length a - 1 downto 0 do
      if !v > (max_int - a.(i)) lsr limb_bits then ok := false
      else v := (!v lsl limb_bits) lor a.(i)
    done;
    if !ok then Some !v else None
  end

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Int.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let out = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize out

let sub a b =
  if compare a b < 0 then invalid_arg "Bignum.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + limb_base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  normalize out

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = out.(i + j) + (a.(i) * b.(j)) + !carry in
        out.(i + j) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let v = out.(!k) + !carry in
        out.(!k) <- v land limb_mask;
        carry := v lsr limb_bits;
        incr k
      done
    done;
    normalize out
  end

let bit_length a =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width v = if v = 0 then 0 else 1 + width (v lsr 1) in
    ((n - 1) * limb_bits) + width top
  end

let get_bit a i =
  let limb = i / limb_bits and off = i mod limb_bits in
  if limb >= Array.length a then 0 else (a.(limb) lsr off) land 1

let shift_left a k =
  if is_zero a || k = 0 then (if k = 0 then a else a)
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- out.(i + limbs + 1) lor (v lsr limb_bits)
    done;
    normalize out
  end

(* Binary long division: O(bits(a) * limbs(b)). Plenty fast for the key
   agreement's handful of modexps. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else begin
    let bits = bit_length a in
    let qlimbs = Array.make ((bits / limb_bits) + 1) 0 in
    let r = ref zero in
    for i = bits - 1 downto 0 do
      r := shift_left !r 1;
      if get_bit a i = 1 then r := add !r one;
      if compare !r b >= 0 then begin
        r := sub !r b;
        qlimbs.(i / limb_bits) <- qlimbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    (normalize qlimbs, !r)
  end

(* x >> k (bits) *)
let shift_right a k =
  if k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        out.(i) <- (lo lor hi) land limb_mask
      done;
      normalize out
    end
  end

(* the k low bits of x *)
let low_bits a k =
  let limbs = (k + limb_bits - 1) / limb_bits in
  let la = Array.length a in
  let n = min la limbs in
  let out = Array.sub a 0 n in
  let top_bits = k - ((limbs - 1) * limb_bits) in
  if n = limbs && top_bits < limb_bits then
    out.(n - 1) <- out.(n - 1) land ((1 lsl top_bits) - 1);
  normalize out

(* is m = 2^k - 1?  (all low k bits set) *)
let mersenne_exponent m =
  let k = bit_length m in
  let rec all_ones i = i >= k || (get_bit m i = 1 && all_ones (i + 1)) in
  if k > 0 && all_ones 0 then Some k else None

(* x mod (2^k - 1): fold k-bit chunks, O(limbs) instead of O(bits*limbs).
   This is what makes the Diffie-Hellman key agreement over the Mersenne
   group fast enough to run in every test session. *)
let rem_mersenne a k m =
  let x = ref a in
  while bit_length !x > k do
    x := add (low_bits !x k) (shift_right !x k)
  done;
  if compare !x m >= 0 then x := sub !x m;
  !x

let rem a b =
  match mersenne_exponent b with
  | Some k when k >= 8 -> rem_mersenne a k b
  | Some _ | None -> snd (divmod a b)

let mod_pow base exp m =
  if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem base m) in
    let bits = bit_length exp in
    for i = 0 to bits - 1 do
      if get_bit exp i = 1 then result := rem (mul !result !b) m;
      if i < bits - 1 then b := rem (mul !b !b) m
    done;
    !result
  end

let of_bytes_be data =
  let n = Bytes.length data in
  let acc = ref zero in
  for i = 0 to n - 1 do
    acc := add (shift_left !acc 8) (of_int (Char.code (Bytes.get data i)))
  done;
  !acc

let to_bytes_be ?pad_to a =
  let nbytes = max 1 ((bit_length a + 7) / 8) in
  let nbytes = match pad_to with Some p -> max p nbytes | None -> nbytes in
  let out = Bytes.make nbytes '\x00' in
  for i = 0 to nbytes - 1 do
    (* byte i from the end is bits [8i, 8i+8) *)
    let v = ref 0 in
    for bit = 7 downto 0 do
      v := (!v lsl 1) lor get_bit a ((8 * i) + bit)
    done;
    Bytes.set out (nbytes - 1 - i) (Char.chr !v)
  done;
  out

let of_hex s =
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  of_bytes_be (Deflection_util.Hex.decode s)

let to_hex a = Deflection_util.Hex.encode (to_bytes_be a)

let random_below prng n =
  if compare n (of_int 2) < 0 then invalid_arg "Bignum.random_below: need n > 1";
  let nbytes = (bit_length n + 7) / 8 in
  let rec try_draw () =
    let candidate = of_bytes_be (Deflection_util.Prng.bytes prng nbytes) in
    let candidate = rem candidate n in
    if is_zero candidate then try_draw () else candidate
  in
  try_draw ()

let pp fmt a = Format.fprintf fmt "0x%s" (to_hex a)
