type t = int

type span = t

let zero = 0
let of_us n = n
let of_ms x = int_of_float (Float.round (x *. 1_000.))
let of_sec x = int_of_float (Float.round (x *. 1_000_000.))
let to_us t = t
let to_ms t = float_of_int t /. 1_000.
let to_sec t = float_of_int t /. 1_000_000.
let add = ( + )
let sub = ( - )
let mul = ( * )
(* Saturating: [int_of_float] on an out-of-range float is undefined (it
   wraps to min_int in practice), which turned an exponential-backoff
   overflow into a negative interval — caught by the partition-heal
   fuzz scenario. Callers clamp with [min cap] afterwards, so
   saturation at the integer range is the faithful total answer. *)
let scale d x =
  let f = Float.round (float_of_int d *. x) in
  if Float.is_nan f then 0
  else if f >= float_of_int max_int then max_int
  else if f <= float_of_int min_int then min_int
  else int_of_float f
let equal = Int.equal
let ( < ) (a : t) b = Stdlib.( < ) a b
let ( <= ) (a : t) b = Stdlib.( <= ) a b
let ( > ) (a : t) b = Stdlib.( > ) a b
let ( >= ) (a : t) b = Stdlib.( >= ) a b
let min = Stdlib.min
let max = Stdlib.max

let pp ppf t =
  let abs = Stdlib.abs t in
  if abs < 1_000 then Format.fprintf ppf "%dus" t
  else if abs < 1_000_000 then Format.fprintf ppf "%.3gms" (to_ms t)
  else Format.fprintf ppf "%.3fs" (to_sec t)

let to_string t = Format.asprintf "%a" pp t
