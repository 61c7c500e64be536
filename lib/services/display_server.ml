type Message.body += Ds_write of string | Ds_ok

type t = {
  kernel : Kernel.t;
  mutable server_pid : Ids.pid;
  mutable rev_lines : string list;
}

let pid t = t.server_pid
let output t = List.rev t.rev_lines
let line_count t = List.length t.rev_lines

let serve t (d : Delivery.t) =
  let k = t.kernel in
  match d.Delivery.msg.Message.body with
  | Ds_write line ->
      t.rev_lines <- line :: t.rev_lines;
      Kernel.reply k d (Message.make Ds_ok)
  | _ -> Kernel.reply k d (Message.make Ds_ok)

let create kernel =
  let lh = Kernel.create_logical_host kernel ~priority:Cpu.Foreground in
  let t = { kernel; server_pid = Ids.pid 0 0; rev_lines = [] } in
  let vp =
    Kernel.spawn_process kernel lh
      (fun vp ->
        let rec loop () =
          serve t (Kernel.receive kernel vp);
          loop ()
        in
        loop ())
  in
  t.server_pid <- Vproc.pid vp;
  t

module Client = struct
  let write k ~self ~server line =
    match
      Kernel.send k ~src:self ~dst:server
        (Message.make ~bytes:(Message.short_bytes + String.length line)
           (Ds_write line))
    with
    | Ok _ -> Ok ()
    | Error e -> Error (Format.asprintf "%a" Kernel.pp_send_error e)
end
