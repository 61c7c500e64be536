module Ordered = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

module Direct = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k
end)
