(** Content digests for pages and image chunks.

    The simulator models page {e identity}, not page bytes: a digest is
    a deterministic fingerprint of what a page's content would be, so
    two pages share a digest exactly when the model says their bytes
    agree. Image-backed pages (code/initialized data never written, and
    the file server's image chunks — same chunking, same key) hash the
    (image, index) pair; untouched active pages are the zero page; any
    written page gets a fresh digest from its per-page write version.

    Every function is a pure function of its arguments — no global
    state — so digests agree across domains and across runs, which the
    deterministic-replay and [-j] merge guarantees require. *)

type t = int
(** A 48-bit digest. Masked well below [max_int] so manifest-wide sums
    (the dedup monitor's conservation check) cannot overflow. *)

val bits : int
(** Width of a digest in bits (48). *)

val string : string -> t
(** Digest of an arbitrary key string. *)

val image_chunk : image:string -> index:int -> t
(** Digest of chunk [index] of program image [image]. Used both by the
    file server (image files are chunked at the page size) and for
    never-written code/data pages of a space created from that image —
    the alignment is what lets an image-cache entry satisfy a later
    migration manifest. Equal to
    [image_chunk_of_key (image_key image) ~index]. *)

type image_key [@@immediate]
(** The hashed image name: what every chunk digest of one image shares. *)

val image_key : string -> image_key
(** Hash the image name once; a caller digesting many chunks of one
    image (an address space, a cache probe loop, an announcement)
    keeps the key and calls {!image_chunk_of_key} per chunk, which
    walks no string. *)

val image_chunk_of_key : image_key -> index:int -> t

val zero_page : page_bytes:int -> t
(** Digest of an all-zero page — every untouched active-data page. The
    constant prefixes of the zero-page and private-page families are
    hashed once, at module initialisation, so neither function walks a
    string. *)

val private_page : space:int -> index:int -> version:int -> t
(** Digest of page [index] of address space [space] after its
    [version]'th write. Distinct from every image chunk and from every
    other (space, index, version) triple. *)
