(* Content digests for pages and image chunks.

   The simulator never stores page contents, so a "digest" here is a
   deterministic synthetic fingerprint of what the content *would* be:
   image-backed pages hash the (image name, chunk index) pair, untouched
   active pages hash as the zero page, and written pages hash the
   (space id, page index, write version) triple so every store produces
   a fresh, globally unique digest. Two pages collide exactly when the
   model says their bytes agree, which is the property every dedup path
   relies on.

   Digests are masked to 48 bits so sums over whole manifests (the
   dedup monitor adds thousands of them) stay far below [max_int] on
   64-bit OCaml. *)

type t = int

let bits = 48
let mask = (1 lsl bits) - 1

(* FNV-1a over the string (32-bit constants so literals fit OCaml's
   63-bit ints), then a splitmix-style avalanche: the structured inputs
   below differ in few bits, and the multiply-xor-shift rounds spread
   them across the whole word. Native-int multiplication wraps, which
   is deterministic — exactly what we need across domains. *)
let fnv1a s =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x01000193
  done;
  !h

let avalanche x =
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = x * 0x27220A95 in
  (x lxor (x lsr 32)) land mask

let combine h x = avalanche ((h * 0x100000001B3) lxor x)

let string s = avalanche (fnv1a s)

(* Each family's constant prefix is hashed once: a page digest is then
   two or three [combine] rounds, with no string walked. *)
type image_key = int

let image_key image = combine (string image) 1
let image_chunk_of_key key ~index = combine key index
let image_chunk ~image ~index = image_chunk_of_key (image_key image) ~index

let zero_base = combine (string "\000zero") 2
let zero_page ~page_bytes = combine zero_base page_bytes

let private_base = combine (string "\000priv") 3

let private_page ~space ~index ~version =
  combine (combine (combine private_base space) index) version
