type event = ..

type value =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Span of Time.t

type view = {
  v_cat : string;
  v_type : string;
  v_fields : (string * value) list;
}

(* Global view registry. Each layer registers its viewer when its module
   initializes; an event can only reach a tracer if its defining module
   is linked, which guarantees the viewer is registered by then. *)
let viewers : (event -> view option) list ref = ref []

let register_view f = viewers := !viewers @ [ f ]
let view_as v_cat v_type v_fields = Some { v_cat; v_type; v_fields }

let view ev =
  let rec first = function
    | [] -> { v_cat = "?"; v_type = "opaque"; v_fields = [] }
    | f :: rest -> ( match f ev with Some v -> v | None -> first rest)
  in
  first !viewers

let pp_value ppf = function
  | Int n -> Format.pp_print_int ppf n
  | Float f -> Format.fprintf ppf "%g" f
  | Str s -> Format.pp_print_string ppf s
  | Bool b -> Format.pp_print_bool ppf b
  | Span t -> Format.pp_print_string ppf (Time.to_string t)

type record = { at : Time.t; seq : int; ev : event }

(* The ring is struct-of-arrays so [emit] writes two slots instead of
   allocating a [record] per event; records are materialized only when
   the ring is read back (or handed to a subscriber). Every emit takes
   the next sequence number and pushes, so the ring holds the last [len]
   sequence numbers in order and stores none of them. *)
type t = {
  engine : Engine.t;
  mutable on : bool;
  capacity : int;
  mutable b_at : Time.t array; (* rings; grown on demand up to [capacity] *)
  mutable b_ev : event array;
  mutable start : int; (* index of oldest retained record *)
  mutable len : int;
  mutable next_seq : int;
  mutable subs : (record -> unit) array; (* registration order *)
}

let default_capacity = 65536

(* Ring filler for unused/cleared slots, so scrubbing never retains a
   real event. Private to this module, so it never reaches a reader. *)
type event += Blank

let create ?(capacity = default_capacity) engine =
  if capacity < 1 then invalid_arg "Tracer.create: capacity < 1";
  {
    engine;
    on = true;
    capacity;
    b_at = [||];
    b_ev = [||];
    start = 0;
    len = 0;
    next_seq = 0;
    subs = [||];
  }

let enabled t = t.on
let set_enabled t on = t.on <- on
let seq t = t.next_seq

let on_event t f = t.subs <- Array.append t.subs [| f |]

(* The rings start small and double whenever they fill, so a tracer
   that records little never pays for [capacity] slots. Past
   [last_doubling] they go straight to [capacity]: a tracer that has
   recorded that much usually goes on to record tens of thousands (the
   median tracer of a monitored fuzz run records about 40k), and copying
   a large ring costs a write barrier per slot.
   A full ring only wraps once it has reached [capacity]; until then
   [start] stays 0. *)
let initial_ring = 64
let last_doubling = 4096

let grow t =
  let n = Array.length t.b_ev in
  let size =
    if n = 0 then Stdlib.min t.capacity initial_ring
    else if n >= last_doubling then t.capacity
    else Stdlib.min t.capacity (2 * n)
  in
  let grown a blank =
    let b = Array.make size blank in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.b_at <- grown t.b_at Time.zero;
  t.b_ev <- grown t.b_ev Blank

let push t ~at ev =
  if t.len = Array.length t.b_ev && t.len < t.capacity then grow t;
  let size = Array.length t.b_ev in
  let i =
    if t.len < size then begin
      let i = t.start + t.len in
      t.len <- t.len + 1;
      i
    end
    else begin
      (* Full at capacity: overwrite the oldest slot. *)
      let i = t.start in
      t.start <- (t.start + 1) mod size;
      i
    end
  in
  t.b_at.(i) <- at;
  t.b_ev.(i) <- ev

let emit t ev =
  if t.on then begin
    let at = Engine.now t.engine in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    push t ~at ev;
    (* Subscribers are rare; the record is boxed only when at least one
       is attached, so the common emit allocates nothing. *)
    let subs = t.subs in
    let n = Array.length subs in
    if n > 0 then begin
      let r = { at; seq; ev } in
      for i = 0 to n - 1 do
        subs.(i) r
      done
    end
  end

let nth_record t i =
  let j = (t.start + i) mod Array.length t.b_ev in
  { at = t.b_at.(j); seq = t.next_seq - t.len + i; ev = t.b_ev.(j) }

let fold_records t f acc =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc (nth_record t i)
  done;
  !acc

let records t = List.rev (fold_records t (fun acc r -> r :: acc) [])

let clear t =
  (* Retain the allocated rings — a cleared tracer is usually about to
     fill up again — but scrub the event slots so cleared events are not
     kept reachable. *)
  Array.fill t.b_ev 0 (Array.length t.b_ev) Blank;
  t.start <- 0;
  t.len <- 0

let pp_record ppf r =
  let v = view r.ev in
  Format.fprintf ppf "#%-6d [%10s] %s: %s" r.seq (Time.to_string r.at) v.v_cat
    v.v_type;
  List.iter
    (fun (k, value) -> Format.fprintf ppf " %s=%a" k pp_value value)
    v.v_fields

(* {2 JSONL export} *)

let json_of_value = function
  | Int n -> Json_min.Num (float_of_int n)
  | Float f -> Json_min.Num f
  | Str s -> Json_min.Str s
  | Bool b -> Json_min.Bool b
  | Span s -> Json_min.Num (float_of_int (Time.to_us s))

let jsonl_of_record r =
  let v = view r.ev in
  Json_min.to_compact_string
    (Json_min.Obj
       (("seq", Json_min.Num (float_of_int r.seq))
        :: ("at_us", Json_min.Num (float_of_int (Time.to_us r.at)))
        :: ("cat", Json_min.Str v.v_cat)
        :: ("type", Json_min.Str v.v_type)
        :: List.map (fun (k, value) -> (k, json_of_value value)) v.v_fields))

let to_jsonl ?categories t =
  let keep r =
    match categories with
    | None -> true
    | Some cats -> List.mem (view r.ev).v_cat cats
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      if keep r then begin
        Buffer.add_string buf (jsonl_of_record r);
        Buffer.add_char buf '\n'
      end)
    (records t);
  Buffer.contents buf
