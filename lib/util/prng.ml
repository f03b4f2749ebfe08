(* The SplitMix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would box a fresh value on every draw.  The primitives
   below are native-endian loads and stores, which is all a private
   state word needs. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] step t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let next64 t = step t

let split t = of_state (step t)

let int t ~bound =
  assert (bound > 0);
  (* Mask to OCaml's 62 positive bits: Int64.to_int alone can yield a
     negative 63-bit value. *)
  let raw = Int64.to_int (step t) land max_int in
  raw mod bound

let in_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t ~bound:(hi - lo + 1)

let bits53 t = Int64.to_int (Int64.shift_right_logical (step t) 11)

let float t ~bound =
  (* 53 random bits scaled into [0, 1). *)
  float_of_int (bits53 t) /. 9007199254740992.0 *. bound

let bool t = Int64.logand (step t) 1L = 1L

let chance t ~p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t ~bound:1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t ~bound:(Array.length arr))
