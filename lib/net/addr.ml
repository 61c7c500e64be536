type t = int

let of_int n =
  assert (n >= 0);
  n

let to_int t = t
let equal = Int.equal
let compare = Int.compare
let pp ppf t = Format.fprintf ppf "station-%d" t
let to_string t = Format.asprintf "%a" pp t
