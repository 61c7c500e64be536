(* Bounded per-host content cache: an LRU over page/chunk digests.

   The cache stores no bytes (the simulator has none) — an entry is a
   digest plus the byte count it stands for, and the byte budget bounds
   the sum of entry sizes. O(1) probe/insert/evict via a hash table
   into an intrusive circular doubly-linked list (sentinel at the head;
   sentinel.next is MRU, sentinel.prev is LRU). *)

type node = {
  n_digest : int;
  n_bytes : int;
  mutable prev : node;
  mutable next : node;
}

type t = {
  budget : int;
  tbl : node Int_table.Direct.t;
  sentinel : node;
  mutable bytes : int;
}

let create ~budget =
  let rec s = { n_digest = min_int; n_bytes = 0; prev = s; next = s } in
  { budget; tbl = Int_table.Direct.create 64; sentinel = s; bytes = 0 }

let budget t = t.budget
let enabled t = t.budget > 0
let bytes t = t.bytes
let entries t = Int_table.Direct.length t.tbl

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let drop t n =
  unlink n;
  Int_table.Direct.remove t.tbl n.n_digest;
  t.bytes <- t.bytes - n.n_bytes

let evict_to_budget t =
  while t.bytes > t.budget do
    drop t t.sentinel.prev
  done

let insert t ~digest ~bytes =
  if bytes > 0 && bytes <= t.budget then
    match Int_table.Direct.find_opt t.tbl digest with
    | Some n ->
        unlink n;
        push_front t n
    | None ->
        let n =
          { n_digest = digest; n_bytes = bytes; prev = t.sentinel; next = t.sentinel }
        in
        Int_table.Direct.replace t.tbl digest n;
        push_front t n;
        t.bytes <- t.bytes + bytes;
        evict_to_budget t

let probe t ~digest ~bytes =
  match Int_table.Direct.find_opt t.tbl digest with
  | Some n ->
      unlink n;
      push_front t n;
      true
  | None ->
      insert t ~digest ~bytes;
      false

let clear t =
  Int_table.Direct.reset t.tbl;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel;
  t.bytes <- 0

let digests t =
  let rec go n acc =
    if n == t.sentinel then List.rev acc else go n.next (n.n_digest :: acc)
  in
  go t.sentinel.next []
