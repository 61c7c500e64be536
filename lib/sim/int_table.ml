(* One plain table for both instances. Its layout is Stdlib [Hashtbl]'s,
   step for step: a power-of-two bucket array of at least 16, insertion at
   the head of a chain, growth to twice the buckets once the size exceeds
   twice the bucket count, an in-place rehash that keeps each chain's
   order, and the same traversal flag. With the same bucket index, every
   [iter], [fold] and [copy] therefore sees the Stdlib table's order. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;
  mutable initial_size : int; (* negative while an iteration is under way *)
  ordered : bool; (* bucket by [Hashtbl.hash], else by the key itself *)
}

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let make ~ordered n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s; ordered }

let index h key =
  (if h.ordered then Hashtbl.hash key else key) land (Array.length h.data - 1)

let ongoing_traversal h = h.initial_size < 0
let flip_ongoing_traversal h = h.initial_size <- -h.initial_size

let reset h =
  let s = abs h.initial_size in
  if Array.length h.data <> s then begin
    h.size <- 0;
    h.data <- Array.make s Empty
  end
  else if h.size > 0 then begin
    h.size <- 0;
    Array.fill h.data 0 s Empty
  end

let copy_bucket = function
  | Empty -> Empty
  | Cons { key; data; next } ->
      let rec loop prec = function
        | Empty -> ()
        | Cons { key; data; next } -> (
            let r = Cons { key; data; next } in
            match prec with
            | Cons p ->
                p.next <- r;
                loop r next
            | Empty -> assert false)
      in
      let r = Cons { key; data; next } in
      loop r next;
      r

let copy h = { h with data = Array.map copy_bucket h.data }
let length h = h.size

(* Append every cell, in bucket then chain order, to the tail of its new
   bucket. In place unless an iteration is walking the old chains. *)
let resize h =
  let odata = h.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let tails = Array.make nsize Empty in
    let inplace = not (ongoing_traversal h) in
    h.data <- ndata;
    let rec insert = function
      | Empty -> ()
      | Cons { key; data; next } as cell ->
          let cell =
            if inplace then cell else Cons { key; data; next = Empty }
          in
          let i = index h key in
          (match tails.(i) with
          | Empty -> ndata.(i) <- cell
          | Cons tail -> tail.next <- cell);
          tails.(i) <- cell;
          insert next
    in
    Array.iter insert odata;
    if inplace then
      Array.iter (function Empty -> () | Cons t -> t.next <- Empty) tails
  end

let rec find_in key = function
  | Empty -> raise Not_found
  | Cons { key = k; data; next } -> if k = key then data else find_in key next

let find h key = find_in key h.data.(index h key)

let rec find_opt_in key = function
  | Empty -> None
  | Cons { key = k; data; next } ->
      if k = key then Some data else find_opt_in key next

let find_opt h key = find_opt_in key h.data.(index h key)

let rec mem_in key = function
  | Empty -> false
  | Cons { key = k; next; _ } -> k = key || mem_in key next

let mem h key = mem_in key h.data.(index h key)

(* [true] when [key] was absent; otherwise its cell now holds [data]. *)
let rec replace_in key data = function
  | Empty -> true
  | Cons ({ key = k; next; _ } as c) ->
      if k = key then begin
        c.data <- data;
        false
      end
      else replace_in key data next

let replace h key data =
  let i = index h key in
  let l = h.data.(i) in
  if replace_in key data l then begin
    h.data.(i) <- Cons { key; data; next = l };
    h.size <- h.size + 1;
    if h.size > Array.length h.data lsl 1 then resize h
  end

let rec remove_in h i key prec = function
  | Empty -> ()
  | Cons { key = k; next; _ } as c ->
      if k = key then begin
        h.size <- h.size - 1;
        match prec with Empty -> h.data.(i) <- next | Cons p -> p.next <- next
      end
      else remove_in h i key c next

let remove h key =
  let i = index h key in
  remove_in h i key Empty h.data.(i)

(* Run [walk] with the traversal flag set, so that a resize during the
   walk copies the cells instead of relinking the chains being walked. *)
let traversing h walk =
  let old = ongoing_traversal h in
  if not old then flip_ongoing_traversal h;
  match walk () with
  | r ->
      if not old then flip_ongoing_traversal h;
      r
  | exception e ->
      if not old then flip_ongoing_traversal h;
      raise e

let iter f h =
  let rec bucket = function
    | Empty -> ()
    | Cons { key; data; next } ->
        f key data;
        bucket next
  in
  traversing h (fun () -> Array.iter bucket h.data)

let fold f h init =
  let rec bucket acc = function
    | Empty -> acc
    | Cons { key; data; next } -> bucket (f key data acc) next
  in
  traversing h (fun () -> Array.fold_left bucket init h.data)

let filter_map_inplace f h =
  let rec bucket i prec = function
    | Empty -> (
        match prec with
        | Empty -> h.data.(i) <- Empty
        | Cons p -> p.next <- Empty)
    | Cons ({ key; data; next } as c) as slot -> (
        match f key data with
        | None ->
            h.size <- h.size - 1;
            bucket i prec next
        | Some data ->
            (match prec with
            | Empty -> h.data.(i) <- slot
            | Cons p -> p.next <- slot);
            c.data <- data;
            bucket i slot next)
  in
  let n = Array.length h.data in
  traversing h (fun () ->
      for i = 0 to n - 1 do
        bucket i Empty h.data.(i)
      done)

module type S = sig
  type 'a t

  val create : int -> 'a t
  val reset : 'a t -> unit
  val copy : 'a t -> 'a t
  val length : 'a t -> int
  val find : 'a t -> int -> 'a
  val find_opt : 'a t -> int -> 'a option
  val mem : 'a t -> int -> bool
  val replace : 'a t -> int -> 'a -> unit
  val remove : 'a t -> int -> unit
  val iter : (int -> 'a -> unit) -> 'a t -> unit
  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
end

module Ops = struct
  type nonrec 'a t = 'a t

  let reset = reset
  let copy = copy
  let length = length
  let find = find
  let find_opt = find_opt
  let mem = mem
  let replace = replace
  let remove = remove
  let iter = iter
  let fold = fold
  let filter_map_inplace = filter_map_inplace
end

module Ordered = struct
  include Ops

  let create n = make ~ordered:true n
end

module Direct = struct
  include Ops

  let create n = make ~ordered:false n
end

(* Open addressing over one interleaved array: cell [i] keeps its key at
   [2i] and its value at [2i + 1], and [empty] in both marks a free
   cell. A key's probe chain starts at [key land mask] and runs forward
   to the first free cell. The table doubles before its load passes one
   half, so every chain ends. A removal shifts the rest of its chain
   back into the hole, so there are no tombstones. *)
module Flat = struct
  type t = { mutable cells : int array; mutable size : int; initial : int }

  let empty = -1

  let create n =
    let s = power_2_above 2 n in
    { cells = Array.make (2 * s) empty; size = 0; initial = s }

  let length t = t.size
  let mask cells = (Array.length cells lsr 1) - 1

  (* The cell holding [key], or the free cell that ends its chain. *)
  let rec slot cells key mask i =
    let k = Array.unsafe_get cells (2 * i) in
    if k = key || k = empty then i else slot cells key mask ((i + 1) land mask)

  let find t key =
    let cells = t.cells in
    let mask = mask cells in
    let i = slot cells key mask (key land mask) in
    if Array.unsafe_get cells (2 * i) = key then Array.unsafe_get cells ((2 * i) + 1)
    else empty

  let grow t =
    let old = t.cells in
    let cells = Array.make (2 * Array.length old) empty in
    let mask = mask cells in
    for i = 0 to (Array.length old lsr 1) - 1 do
      let k = old.(2 * i) in
      if k <> empty then begin
        let j = slot cells k mask (k land mask) in
        cells.(2 * j) <- k;
        cells.((2 * j) + 1) <- old.((2 * i) + 1)
      end
    done;
    t.cells <- cells

  let rec replace t key v =
    if key < 0 || v < 0 then invalid_arg "Int_table.Flat.replace: negative";
    let cells = t.cells in
    let mask = mask cells in
    let i = slot cells key mask (key land mask) in
    if Array.unsafe_get cells (2 * i) = key then begin
      let prev = Array.unsafe_get cells ((2 * i) + 1) in
      Array.unsafe_set cells ((2 * i) + 1) v;
      prev
    end
    else if 2 * (t.size + 1) > mask + 1 then begin
      grow t;
      replace t key v
    end
    else begin
      Array.unsafe_set cells (2 * i) key;
      Array.unsafe_set cells ((2 * i) + 1) v;
      t.size <- t.size + 1;
      empty
    end

  (* Free the cell of [key], then walk the rest of its chain: an entry
     whose home lies cyclically at or before the hole moves back into
     it, leaving a new hole behind. *)
  let remove t key =
    let cells = t.cells in
    let mask = mask cells in
    let i = slot cells key mask (key land mask) in
    if key < 0 || Array.unsafe_get cells (2 * i) <> key then false
    else begin
      let hole = ref i and j = ref ((i + 1) land mask) in
      while cells.(2 * !j) <> empty do
        let k = cells.(2 * !j) in
        if (!j - (k land mask)) land mask >= (!j - !hole) land mask then begin
          cells.(2 * !hole) <- k;
          cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      cells.(2 * !hole) <- empty;
      cells.((2 * !hole) + 1) <- empty;
      t.size <- t.size - 1;
      true
    end

  let reset t =
    if Array.length t.cells <> 2 * t.initial then
      t.cells <- Array.make (2 * t.initial) empty
    else if t.size > 0 then Array.fill t.cells 0 (Array.length t.cells) empty;
    t.size <- 0
end
