type segment = Code | Initialized_data | Active_data

type t = {
  id : int;
  image : string; (* backing image name; "" when anonymous *)
  page_bytes : int;
  code_pages : int;
  data_pages : int;
  active_pages : int;
  dirty : Bytes.t; (* one byte per page: 0 clean, 1 dirty *)
  mutable dirty_count : int;
  versions : int array; (* per-page write count — keys content digests *)
  (* Copy-on-reference residency. [None] means every page is local (the
     common case: no bitmap allocated). After [evict_all], a page is
     absent until first touched; the touch queues it on [pending] so the
     owning process can pull it from the source host at its next
     scheduling boundary. *)
  mutable resident : Bytes.t option; (* 0 absent, 1 resident *)
  mutable baseline : int array option;
      (* versions as of [evict_all] — the content the source retains; a
         fault pulls the page at its baseline version, not at whatever
         version local touches have since pushed it to *)
  mutable absent_count : int;
  mutable pending : int list; (* faulted pages, most recent first *)
}

(* Domain-local, so replica simulations running on parallel domains
   neither race on the counter nor observe each other's allocations;
   [reset_ids] (called per cluster) makes every replica see the same id
   sequence whatever domain it lands on. *)
let next_id = Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get next_id := 0

let pages_of ~page_bytes b = (b + page_bytes - 1) / page_bytes

let create ?(page_bytes = 1024) ?(image = "") ~code_bytes ~data_bytes
    ~active_bytes () =
  assert (page_bytes > 0);
  let next_id = Domain.DLS.get next_id in
  incr next_id;
  let code_pages = pages_of ~page_bytes code_bytes in
  let data_pages = pages_of ~page_bytes data_bytes in
  let active_pages = pages_of ~page_bytes active_bytes in
  let total = code_pages + data_pages + active_pages in
  {
    id = !next_id;
    image;
    page_bytes;
    code_pages;
    data_pages;
    active_pages;
    dirty = Bytes.make total '\000';
    dirty_count = 0;
    versions = Array.make total 0;
    resident = None;
    baseline = None;
    absent_count = 0;
    pending = [];
  }

let id t = t.id
let page_bytes t = t.page_bytes
let pages t = t.code_pages + t.data_pages + t.active_pages
let bytes t = pages t * t.page_bytes

let segment_pages t = function
  | Code -> t.code_pages
  | Initialized_data -> t.data_pages
  | Active_data -> t.active_pages

let segment_first t = function
  | Code -> 0
  | Initialized_data -> t.code_pages
  | Active_data -> t.code_pages + t.data_pages

let touch t p =
  if p < 0 || p >= pages t then
    invalid_arg (Printf.sprintf "Address_space.touch: page %d of %d" p (pages t));
  (match t.resident with
  | Some r when Bytes.get r p = '\000' ->
      Bytes.set r p '\001';
      t.absent_count <- t.absent_count - 1;
      t.pending <- p :: t.pending;
      if t.absent_count = 0 then t.resident <- None
  | _ -> ());
  t.versions.(p) <- t.versions.(p) + 1;
  if Bytes.get t.dirty p = '\000' then begin
    Bytes.set t.dirty p '\001';
    t.dirty_count <- t.dirty_count + 1
  end

let touch_random_in t rng seg ~first ~count =
  let seg_pages = segment_pages t seg in
  if count > 0 && first >= 0 && first + count <= seg_pages then
    touch t (segment_first t seg + first + Rng.int rng count)

let is_dirty t p = p >= 0 && p < pages t && Bytes.get t.dirty p = '\001'

let image t = t.image

(* Content digest of a page's current bytes. Never-written code and
   initialized-data pages of an image-backed space share digests with
   the file server's image chunks (same key, same chunking); untouched
   active pages are the zero page; anything ever written is keyed by
   this space's id and the page's write version, so no two distinct
   contents ever share a digest. *)
let digest_at t p v =
  if v > 0 then Pagehash.private_page ~space:t.id ~index:p ~version:v
  else if p < t.code_pages + t.data_pages then
    if t.image <> "" then Pagehash.image_chunk ~image:t.image ~index:p
    else Pagehash.private_page ~space:t.id ~index:p ~version:0
  else Pagehash.zero_page ~page_bytes:t.page_bytes

let check_page t p who =
  if p < 0 || p >= pages t then
    invalid_arg (Printf.sprintf "Address_space.%s: page %d of %d" who p (pages t))

let page_digest t p =
  check_page t p "page_digest";
  digest_at t p t.versions.(p)

let source_page_digest t p =
  check_page t p "source_page_digest";
  digest_at t p (match t.baseline with Some b -> b.(p) | None -> t.versions.(p))

let dirty_count t = t.dirty_count
let dirty_bytes t = t.dirty_count * t.page_bytes

let fold_dirty t ~init ~f =
  let n = pages t in
  let acc = ref init in
  for p = 0 to n - 1 do
    if Bytes.get t.dirty p = '\001' then acc := f !acc p
  done;
  !acc

let iter_dirty t f =
  let n = pages t in
  for p = 0 to n - 1 do
    if Bytes.get t.dirty p = '\001' then f p
  done

let snapshot_dirty t = List.rev (fold_dirty t ~init:[] ~f:(fun acc p -> p :: acc))

let clear_dirty t =
  let n = t.dirty_count in
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  t.dirty_count <- 0;
  n

let fill_all_dirty t =
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\001';
  t.dirty_count <- pages t

let evict_all t =
  let n = pages t in
  t.resident <- (if n = 0 then None else Some (Bytes.make n '\000'));
  t.baseline <- (if n = 0 then None else Some (Array.copy t.versions));
  t.absent_count <- n;
  t.pending <- []

let make_all_resident t =
  t.resident <- None;
  t.baseline <- None;
  t.absent_count <- 0;
  t.pending <- []

let absent_count t = t.absent_count

let take_pending_faults t =
  let ps = List.rev t.pending in
  t.pending <- [];
  ps
