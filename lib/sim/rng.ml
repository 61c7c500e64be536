(* The 64-bit state lives in an 8-byte buffer, read and written with
   the bytes primitives so it stays unboxed: as a mutable [int64] field,
   every draw would box the new state. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined into each draw, so the intermediate [int64]s are unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  assert (bound > 0);
  (* Rejection-free modulo is fine here: bound is tiny relative to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let uniform_span t lo hi =
  let lo_us = Time.to_us lo and hi_us = Time.to_us hi in
  if hi_us <= lo_us then lo else Time.of_us (lo_us + int t (hi_us - lo_us + 1))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
