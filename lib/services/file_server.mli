(** Network file server.

    The paper's workstations are diskless: program images and files live
    on network file servers, which is why "the cost of program loading is
    independent of whether a program is executed locally or remotely"
    (Section 4.1) and why migrated programs usually carry no residual file
    dependencies (Section 3.3). The server runs as an ordinary V process;
    clients reach it with plain IPC plus bulk transfers for data, so file
    traffic contends for the wire like everything else.

    Program loading is calibrated to the paper's 330 ms per 100 KB: the
    bulk network path provides 300 ms/100 KB and the server's simulated
    disk adds the rest. *)

type image = {
  code_bytes : int;
  data_bytes : int;  (** Initialized data. *)
  active_bytes : int;  (** Heap/stack/BSS the program will dirty. *)
}
(** A stored program binary: what the program manager needs to size the
    new address space. *)

val image_file_bytes : image -> int
(** Bytes read to load the image (code + initialized data). *)

val image_bytes : image -> int
(** Memory the loaded program occupies: the file bytes plus its active
    data. *)

val chunk_bytes : int
(** Image chunking granularity for content-addressed loads: 1024, the V
    page size, so chunk digests ([Pagehash.image_chunk]) line up with
    the page digests of address spaces created from the image. *)

val image_chunks : image -> int
(** Number of chunks in the stored image file. *)

(** One event per image load served, full or delta: [chunks] of the
    image's [total] chunks ([bytes] bytes) are read and shipped to
    [requester]. Category ["fs"], type ["load"]. *)
type Tracer.event +=
  | Image_loaded of {
      image : string;
      chunks : int;
      total : int;
      bytes : int;
      requester : Ids.pid;
    }

type t

val create : ?disk_us_per_kb:int -> Kernel.t -> t
(** Start a file server process on the given workstation's kernel.
    [disk_us_per_kb] defaults to 300 — the extra
    0.3 ms/KB that tops network loading up to the paper's rate. *)

val pid : t -> Ids.pid
(** Address clients send requests to. *)

val host : t -> Kernel.t

val add_image : t -> name:string -> image -> unit
(** Publish a program binary. *)

val add_file : t -> path:string -> bytes:int -> unit
(** Create a plain file of the given size. *)

val file_size : t -> path:string -> int option
val request_count : t -> int

(** {1 Protocol} *)

type Message.body +=
  | Fs_stat of { path : string }
  | Fs_attr of { bytes : int }
  | Fs_read of { path : string; offset : int; length : int }
  | Fs_data of { bytes : int }
      (** Reply to a read; payload bytes are additionally bulk-transferred
          when they exceed a message segment. *)
  | Fs_write of { path : string; offset : int; length : int }
  | Fs_load_image of { name : string }
  | Fs_load_delta of { name : string; missing : int; bytes : int }
      (** Content-aware load (content caching on): the requester already
          holds every chunk it did not ask for, so the server reads and
          ships only [missing] chunks ([bytes] bytes) before replying
          {!Fs_image} — one IPC round trip, no disk, no bulk transfer
          when the image is fully cached. Serving a delta (or full load)
          that shipped bytes is followed by a [Ks_content_announce]
          multicast to {!Ids.content_group}. *)
  | Fs_image of image
      (** Reply to a load; the image bytes have been bulk-transferred to
          the requesting host by the time it arrives. *)
  | Fs_ok
  | Fs_error of string

(** {1 Client helpers}

    Thin wrappers for programs: each performs the request from the
    calling process' kernel and unpacks the reply. *)

module Client : sig
  val stat :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> path:string ->
    (int, string) result

  val read :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> path:string ->
    offset:int -> length:int -> (int, string) result
  (** Returns the byte count actually read. *)

  val write :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> path:string ->
    offset:int -> length:int -> (unit, string) result
  (** Extends the file as needed. *)

  val load_image :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> name:string ->
    (image, string) result

  val load_delta :
    Kernel.t -> self:Ids.pid -> server:Ids.pid -> name:string ->
    missing:int -> bytes:int -> (image, string) result
  (** [Fs_load_delta] as computed by the caller's own cache probe. *)
end
