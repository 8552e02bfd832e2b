(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014.

   The state and every intermediate of the mixing function are carried as
   two non-negative 32-bit halves in native ints rather than as [Int64]s:
   without flambda each [Int64] operation allocates a fresh box, which put
   ~25 minor words on every latency-jitter and fault draw — the single
   largest allocation on the n >> 100 simulation hot path.  The limb
   arithmetic below reproduces the 64-bit wraparound semantics bit for bit
   (xor/shift directly, multiplication via 16-bit limb columns), so the
   output stream is unchanged: test/suite_sim.ml drives it against a boxed
   Int64 reference implementation.

   The scratch output register lives in the generator record (not in module
   globals): each [t] is owned by one domain, so [Pool]-parallel campaigns
   stay race-free. *)

type t = {
  mutable hi : int;  (* state bits 32..63 *)
  mutable lo : int;  (* state bits 0..31 *)
  (* Result register of [next]/[mix64]: returning a pair would box it. *)
  mutable out_hi : int;
  mutable out_lo : int;
}

let mask32 = 0xFFFFFFFF

(* golden_gamma = 0x9E3779B97F4A7C15 *)
let gamma_hi = 0x9E3779B9
let gamma_lo = 0x7F4A7C15

(* mix multipliers: 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB *)
let m1_hi = 0xBF58476D
let m1_lo = 0x1CE4E5B9
let m2_hi = 0x94D049BB
let m2_lo = 0x133111EB

(* out := low 64 bits of (ahi:alo) * (bhi:blo), via 16-bit limb columns.
   Every partial product is < 2^32 and every column sum < 2^34, so nothing
   approaches the 62-bit native-int range. *)
let mul64 t ahi alo bhi blo =
  let a0 = alo land 0xFFFF and a1 = alo lsr 16 in
  let a2 = ahi land 0xFFFF and a3 = ahi lsr 16 in
  let b0 = blo land 0xFFFF and b1 = blo lsr 16 in
  let b2 = bhi land 0xFFFF and b3 = bhi lsr 16 in
  let c0 = a0 * b0 in
  let c1 = (a0 * b1) + (a1 * b0) in
  let c2 = (a0 * b2) + (a1 * b1) + (a2 * b0) in
  let c3 = (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0) in
  let t0 = c0 + ((c1 land 0xFFFF) lsl 16) in
  t.out_lo <- t0 land mask32;
  t.out_hi <-
    ((c1 lsr 16) + c2 + ((c3 land 0xFFFF) lsl 16) + (t0 lsr 32)) land mask32

(* out := z ^ (z >>> k) for 0 < k < 32, on limbs. *)
let xorshift64 t hi lo k =
  let shi = hi lsr k in
  let slo = ((hi lsl (32 - k)) lor (lo lsr k)) land mask32 in
  t.out_hi <- hi lxor shi;
  t.out_lo <- lo lxor slo

(* out := mix64 (hi:lo). *)
let mix64 t hi lo =
  xorshift64 t hi lo 30;
  mul64 t t.out_hi t.out_lo m1_hi m1_lo;
  xorshift64 t t.out_hi t.out_lo 27;
  mul64 t t.out_hi t.out_lo m2_hi m2_lo;
  xorshift64 t t.out_hi t.out_lo 31

let create ~seed =
  let t = { hi = 0; lo = 0; out_hi = 0; out_lo = 0 } in
  (* Int64.of_int sign-extends; asr replicates the same sign bits. *)
  mix64 t ((seed asr 32) land mask32) (seed land mask32);
  t.hi <- t.out_hi;
  t.lo <- t.out_lo;
  t

(* Advance the state by golden_gamma and leave mix(state) in out_hi/out_lo. *)
let next t =
  let s = t.lo + gamma_lo in
  let lo = s land mask32 in
  let hi = (t.hi + gamma_hi + (s lsr 32)) land mask32 in
  t.hi <- hi;
  t.lo <- lo;
  mix64 t hi lo

let int64 t =
  next t;
  Int64.logor
    (Int64.shift_left (Int64.of_int t.out_hi) 32)
    (Int64.of_int t.out_lo)

let split t =
  next t;
  { hi = t.out_hi; lo = t.out_lo; out_hi = 0; out_lo = 0 }

let derive ~seed index =
  (* Cold path (one call per campaign run): the boxed Int64 arithmetic of
     the original formulation is kept verbatim. *)
  let golden_gamma = 0x9E3779B97F4A7C15L in
  let mix z =
    let z =
      Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L)
    in
    let z =
      Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL)
    in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let z =
    mix
      Int64.(
        add
          (mix (of_int seed))
          (mul (of_int (index + 1)) golden_gamma))
  in
  Int64.to_int (Int64.shift_right_logical z 2)

(* At top level rather than a local [let rec] closing over [t] and
   [bound], whose closure would be allocated on every draw: every jitter
   draw of every packet copy comes through here. *)
let rec draw_int t bound =
  next t;
  (* Low 63 bits of the output, with the same wrap-to-negative behaviour
     as [Int64.to_int (Int64.logand out Int64.max_int)]: a value with
     bit 62 set comes out negative and is rejected below. *)
  let v = ((t.out_hi land 0x7FFFFFFF) lsl 32) lor t.out_lo in
  (* Rejection sampling to avoid modulo bias. *)
  let r = v mod bound in
  if v - r + (bound - 1) < 0 then draw_int t bound else r

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  draw_int t bound

let float t bound =
  (* 53 random bits mapped to [0, 1). *)
  next t;
  let bits = (t.out_hi lsl 21) lor (t.out_lo lsr 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let exponential t ~mean =
  let u = float t 1.0 in
  (* 1 - u is in (0, 1], so log is finite. *)
  -.mean *. log (1.0 -. u)

let geometric t ~p =
  if p >= 1.0 then 0
  else if p <= 0.0 then invalid_arg "Rng.geometric: p must be positive"
  else
    let u = float t 1.0 in
    int_of_float (Float.floor (log (1.0 -. u) /. log (1.0 -. p)))
