(* Bounded per-host content cache: an LRU over page/chunk digests.

   The cache stores no bytes (the simulator has none) — an entry is a
   digest plus the byte count it stands for, and the byte budget bounds
   the sum of entry sizes.

   Entries live in a slab of parallel int arrays indexed by slot:
   [digest], [size], and the [prev]/[next] links of a circular
   doubly-linked recency list. Slot 0 is the list's sentinel
   ([next.(0)] is MRU, [prev.(0)] is LRU). Freed slots are chained
   through [next] from [free]; slots at and above [fresh] were never
   handed out. The slab doubles when full.

   [index] maps a digest to its slot by open addressing: linear probing
   from [digest land mask] (digests are already avalanche-mixed), 0
   marking an empty cell. A removal shifts the rest of its probe chain
   back, so there are no tombstones; the index doubles before its load
   passes one half.

   Probe, insert and evict allocate nothing once the slab has grown to
   the budget's working set. A disabled cache holds no slab at all. *)

type t = {
  budget : int;
  mutable digest : int array;
  mutable size : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable free : int;  (* head of the free-slot chain; 0 when empty *)
  mutable fresh : int;  (* first never-used slot *)
  mutable index : int array;  (* digest -> slot; 0 is an empty cell *)
  mutable entries : int;
  mutable bytes : int;
}

let initial_slots = 64

let create ~budget =
  let slab n = if budget > 0 then Array.make n 0 else [||] in
  {
    budget;
    digest = slab initial_slots;
    size = slab initial_slots;
    prev = slab initial_slots;
    next = slab initial_slots;
    free = 0;
    fresh = 1;
    index = slab (2 * initial_slots);
    entries = 0;
    bytes = 0;
  }

let budget t = t.budget
let enabled t = t.budget > 0
let bytes t = t.bytes
let entries t = t.entries

(* {2 Index} *)

(* Loops below are top-level functions or [while] loops over local
   refs: a local closure over [t] would allocate on every call. *)

(* The slot holding digest [d], or 0. *)
let rec find_from t d i =
  let s = t.index.(i) in
  if s = 0 || t.digest.(s) = d then s
  else find_from t d ((i + 1) land (Array.length t.index - 1))

let find t d = find_from t d (d land (Array.length t.index - 1))

let index_add t slot =
  let mask = Array.length t.index - 1 in
  let i = ref (t.digest.(slot) land mask) in
  while t.index.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  t.index.(!i) <- slot

(* Empty the cell of [slot], then walk the rest of its probe chain: an
   entry whose home lies cyclically at or before the hole moves back
   into it, leaving a new hole behind. *)
let index_remove t slot =
  let mask = Array.length t.index - 1 in
  let hole = ref (t.digest.(slot) land mask) in
  while t.index.(!hole) <> slot do
    hole := (!hole + 1) land mask
  done;
  let j = ref ((!hole + 1) land mask) in
  while t.index.(!j) <> 0 do
    let s = t.index.(!j) in
    if (!j - (t.digest.(s) land mask)) land mask >= (!j - !hole) land mask
    then begin
      t.index.(!hole) <- s;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.index.(!hole) <- 0

(* Rebuild the index at twice its size from the recency list. *)
let grow_index t =
  t.index <- Array.make (2 * Array.length t.index) 0;
  let s = ref t.next.(0) in
  while !s <> 0 do
    index_add t !s;
    s := t.next.(!s)
  done

(* {2 Slab} *)

let grow_slab t =
  let n = Array.length t.digest in
  let widen a =
    let b = Array.make (2 * n) 0 in
    Array.blit a 0 b 0 n;
    b
  in
  t.digest <- widen t.digest;
  t.size <- widen t.size;
  t.prev <- widen t.prev;
  t.next <- widen t.next

let alloc_slot t =
  if t.free <> 0 then begin
    let s = t.free in
    t.free <- t.next.(s);
    s
  end
  else begin
    if t.fresh = Array.length t.digest then grow_slab t;
    let s = t.fresh in
    t.fresh <- s + 1;
    s
  end

(* {2 Recency list} *)

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let push_front t s =
  let first = t.next.(0) in
  t.next.(s) <- first;
  t.prev.(s) <- 0;
  t.prev.(first) <- s;
  t.next.(0) <- s

let touch t s =
  unlink t s;
  push_front t s

let evict_lru t =
  let s = t.prev.(0) in
  index_remove t s;
  unlink t s;
  t.bytes <- t.bytes - t.size.(s);
  t.entries <- t.entries - 1;
  t.next.(s) <- t.free;
  t.free <- s

(* Store a digest known to be absent, then evict past the budget; the
   new entry is MRU and within the budget, so it survives. *)
let add t ~digest ~bytes =
  if 2 * (t.entries + 1) > Array.length t.index then grow_index t;
  let s = alloc_slot t in
  t.digest.(s) <- digest;
  t.size.(s) <- bytes;
  index_add t s;
  push_front t s;
  t.entries <- t.entries + 1;
  t.bytes <- t.bytes + bytes;
  while t.bytes > t.budget do
    evict_lru t
  done

let storable t bytes = bytes > 0 && bytes <= t.budget

let insert t ~digest ~bytes =
  if storable t bytes then begin
    let s = find t digest in
    if s <> 0 then touch t s else add t ~digest ~bytes
  end

let probe t ~digest ~bytes =
  if t.budget <= 0 then false
  else
    let s = find t digest in
    if s <> 0 then begin
      touch t s;
      true
    end
    else begin
      if storable t bytes then add t ~digest ~bytes;
      false
    end

let clear t =
  if t.budget > 0 then begin
    Array.fill t.index 0 (Array.length t.index) 0;
    t.next.(0) <- 0;
    t.prev.(0) <- 0;
    t.free <- 0;
    t.fresh <- 1;
    t.entries <- 0;
    t.bytes <- 0
  end

let digests t =
  let acc = ref [] in
  if t.budget > 0 then begin
    let s = ref t.prev.(0) in
    while !s <> 0 do
      acc := t.digest.(!s) :: !acc;
      s := t.prev.(!s)
    done
  end;
  !acc
