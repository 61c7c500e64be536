type image = { code_bytes : int; data_bytes : int; active_bytes : int }

let image_file_bytes img = img.code_bytes + img.data_bytes
let image_bytes img = image_file_bytes img + img.active_bytes

(* Images are chunked at the V page size, so chunk digests line up with
   the page digests of address spaces created from the image. *)
let chunk_bytes = 1024
let image_chunks img = (image_file_bytes img + chunk_bytes - 1) / chunk_bytes

type Message.body +=
  | Fs_stat of { path : string }
  | Fs_attr of { bytes : int }
  | Fs_read of { path : string; offset : int; length : int }
  | Fs_data of { bytes : int }
  | Fs_write of { path : string; offset : int; length : int }
  | Fs_load_image of { name : string }
  | Fs_load_delta of { name : string; missing : int; bytes : int }
  | Fs_image of image
  | Fs_ok
  | Fs_error of string

type Tracer.event +=
  | Image_loaded of {
      image : string;
      chunks : int;
      total : int;
      bytes : int;
      requester : Ids.pid;
    }

let () =
  Tracer.register_view (function
    | Image_loaded { image; chunks; total; bytes; requester } ->
        Tracer.view_as "fs" "load"
          [
            ("image", Tracer.Str image);
            ("chunks", Int chunks);
            ("total", Int total);
            ("bytes", Int bytes);
            ("for", Str (Ids.pid_to_string requester));
          ]
    | _ -> None)

type t = {
  kernel : Kernel.t;
  mutable server_pid : Ids.pid;
  files : (string, int) Hashtbl.t; (* path -> size *)
  images : (string, image) Hashtbl.t;
  disk_us_per_kb : int;
  mutable requests : int;
}

let pid t = t.server_pid
let host t = t.kernel
let add_image t ~name img = Hashtbl.replace t.images name img
let add_file t ~path ~bytes = Hashtbl.replace t.files path bytes
let file_size t ~path = Hashtbl.find_opt t.files path
let request_count t = t.requests

(* Simulated disk time for [bytes] of media traffic. *)
let disk_delay t bytes =
  let kb = (bytes + 1023) / 1024 in
  Proc.sleep (Kernel.engine t.kernel) (Time.of_us (kb * t.disk_us_per_kb))

(* Data beyond a message segment moves as a bulk transfer on the wire,
   toward the requester's station (which may sit across a bridge). *)
let ship t (d : Delivery.t) bytes =
  if bytes > 1024 then
    let to_station =
      match d.Delivery.origin with
      | Delivery.Remote station -> Some station
      | Delivery.Local -> None
    in
    Kernel.bulk_transfer ?to_station t.kernel ~bytes

(* Multicast the image's chunk digests to every caching host: the
   chunks just crossed the shared wire, so the whole cluster may count
   them as held — a pod launching the same program pays the 330 ms/
   100 KB load once (DESIGN.md §4k). No-op with caching off. *)
let announce_image t name img =
  let k = t.kernel in
  if Kernel.content_caching k then
    Kernel.close_collector k
      (Kernel.send_group k ~src:t.server_pid ~group:Ids.content_group
         (Message.make
            (Kernel.Ks_content_announce
               { image = name; first = 0; count = image_chunks img; chunk_bytes })))

(* Read [chunks] of [img]'s chunks ([bytes] bytes) off the disk, ship
   them to the requester and reply with the image. *)
let load t (d : Delivery.t) name img ~chunks ~bytes =
  Kernel.emit t.kernel (fun () ->
      Image_loaded
        {
          image = name;
          chunks;
          total = image_chunks img;
          bytes;
          requester = d.Delivery.src;
        });
  disk_delay t bytes;
  ship t d bytes;
  Kernel.reply t.kernel d (Message.make (Fs_image img));
  if bytes > 0 then announce_image t name img

let serve t (d : Delivery.t) =
  t.requests <- t.requests + 1;
  let k = t.kernel in
  match d.Delivery.msg.Message.body with
  | Fs_stat { path } -> (
      match Hashtbl.find_opt t.files path with
      | Some bytes -> Kernel.reply k d (Message.make (Fs_attr { bytes }))
      | None -> Kernel.reply k d (Message.make (Fs_error "no such file")))
  | Fs_read { path; offset; length } -> (
      match Hashtbl.find_opt t.files path with
      | None -> Kernel.reply k d (Message.make (Fs_error "no such file"))
      | Some size ->
          let n = Stdlib.max 0 (Stdlib.min length (size - offset)) in
          disk_delay t n;
          ship t d n;
          Kernel.reply k d
            (Message.make ~bytes:(Message.short_bytes + Stdlib.min n 1024)
               (Fs_data { bytes = n })))
  | Fs_write { path; offset; length } ->
      let size = Option.value (Hashtbl.find_opt t.files path) ~default:0 in
      disk_delay t length;
      Hashtbl.replace t.files path (Stdlib.max size (offset + length));
      Kernel.reply k d (Message.make Fs_ok)
  | Fs_load_image { name } -> (
      match Hashtbl.find_opt t.images name with
      | None -> Kernel.reply k d (Message.make (Fs_error "no such image"))
      | Some img ->
          load t d name img ~chunks:(image_chunks img)
            ~bytes:(image_file_bytes img))
  | Fs_load_delta { name; missing; bytes } -> (
      (* Content-aware load: the requester already holds every chunk it
         did not ask for, so only [missing] chunks ([bytes] bytes) are
         read and shipped. A fully cached image costs one IPC round
         trip — no disk, no bulk transfer. *)
      match Hashtbl.find_opt t.images name with
      | None -> Kernel.reply k d (Message.make (Fs_error "no such image"))
      | Some img -> load t d name img ~chunks:missing ~bytes)
  | _ -> Kernel.reply k d (Message.make (Fs_error "unknown request"))

let create ?(disk_us_per_kb = 300) kernel =
  let lh = Kernel.create_logical_host kernel ~priority:Cpu.Foreground in
  let t =
    {
      kernel;
      server_pid = Ids.pid 0 0; (* patched below *)
      files = Hashtbl.create 64;
      images = Hashtbl.create 16;
      disk_us_per_kb;
      requests = 0;
    }
  in
  let vp =
    Kernel.spawn_process kernel lh (fun vp ->
        let rec loop () =
          serve t (Kernel.receive kernel vp);
          loop ()
        in
        loop ())
  in
  t.server_pid <- Vproc.pid vp;
  t

module Client = struct
  let unpack_error what = function
    | Fs_error e -> Error e
    | _ -> Error (what ^ ": unexpected reply")

  let call k ~self ~server body =
    match Kernel.send k ~src:self ~dst:server (Message.make body) with
    | Ok m -> Ok m.Message.body
    | Error e -> Error (Format.asprintf "%a" Kernel.pp_send_error e)

  let stat k ~self ~server ~path =
    match call k ~self ~server (Fs_stat { path }) with
    | Ok (Fs_attr { bytes }) -> Ok bytes
    | Ok other -> unpack_error "stat" other
    | Error e -> Error e

  let read k ~self ~server ~path ~offset ~length =
    match call k ~self ~server (Fs_read { path; offset; length }) with
    | Ok (Fs_data { bytes }) -> Ok bytes
    | Ok other -> unpack_error "read" other
    | Error e -> Error e

  let write k ~self ~server ~path ~offset ~length =
    match call k ~self ~server (Fs_write { path; offset; length }) with
    | Ok Fs_ok -> Ok ()
    | Ok other -> unpack_error "write" other
    | Error e -> Error e

  let load_image k ~self ~server ~name =
    match call k ~self ~server (Fs_load_image { name }) with
    | Ok (Fs_image img) -> Ok img
    | Ok other -> unpack_error "load_image" other
    | Error e -> Error e

  let load_delta k ~self ~server ~name ~missing ~bytes =
    match call k ~self ~server (Fs_load_delta { name; missing; bytes }) with
    | Ok (Fs_image img) -> Ok img
    | Ok other -> unpack_error "load_delta" other
    | Error e -> Error e
end
