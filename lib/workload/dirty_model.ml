type params = {
  hot_kb : float;
  hot_write_kb_per_sec : float;
  cold_kb_per_sec : float;
}

let pp_params ppf p =
  Format.fprintf ppf "hot=%.1fKB@%.1fKB/s cold=%.1fKB/s" p.hot_kb
    p.hot_write_kb_per_sec p.cold_kb_per_sec

let expected_unique_kb p seconds =
  let hot =
    if p.hot_kb <= 0. then 0.
    else p.hot_kb *. (1. -. exp (-.p.hot_write_kb_per_sec *. seconds /. p.hot_kb))
  in
  hot +. (p.cold_kb_per_sec *. seconds)

(* Fractional page debt carried between slices. An all-float record
   stores both unboxed; as mutable fields of [t] each update would box. *)
type carry = { mutable hot : float; mutable cold : float } (* KB *)

type t = {
  p : params;
  space : Address_space.t;
  hot_pages : int;
  cold_pages : int;
  mutable cold_next : int; (* next cold page offset, cycling *)
  carry : carry;
}

let params t = t.p

let create p space =
  let active = Address_space.segment_pages space Address_space.Active_data in
  if active < 1 then
    invalid_arg "Dirty_model.create: empty active segment";
  let page_kb = float_of_int (Address_space.page_bytes space) /. 1024. in
  let hot_pages =
    Stdlib.min active
      (Stdlib.max 1 (int_of_float (Float.round (p.hot_kb /. page_kb))))
  in
  {
    p;
    space;
    hot_pages;
    cold_pages = Stdlib.max 1 (active - hot_pages);
    cold_next = 0;
    carry = { hot = 0.; cold = 0. };
  }

let on_cpu t rng span =
  (* [Time.to_sec span], computed here so the float stays unboxed. *)
  let seconds = float_of_int (Time.to_us span) /. 1e6 in
  let page_kb = float_of_int (Address_space.page_bytes t.space) /. 1024. in
  let c = t.carry in
  (* Hot rewrites: each write lands uniformly in the hot window. *)
  c.hot <- c.hot +. (t.p.hot_write_kb_per_sec *. seconds);
  while c.hot >= page_kb do
    c.hot <- c.hot -. page_kb;
    Address_space.touch_random_in t.space rng Address_space.Active_data ~first:0
      ~count:t.hot_pages
  done;
  (* Cold first-touches: sequential through the rest of the segment. *)
  c.cold <- c.cold +. (t.p.cold_kb_per_sec *. seconds);
  while c.cold >= page_kb do
    c.cold <- c.cold -. page_kb;
    let offset = t.hot_pages + (t.cold_next mod t.cold_pages) in
    let active = Address_space.segment_pages t.space Address_space.Active_data in
    if offset < active then
      Address_space.touch_random_in t.space rng Address_space.Active_data
        ~first:offset ~count:1;
    t.cold_next <- t.cold_next + 1
  done
