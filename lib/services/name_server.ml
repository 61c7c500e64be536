type Message.body +=
  | Ns_register of { name : string; who : Ids.pid }
  | Ns_lookup of { name : string }
  | Ns_binding of { name : string; who : Ids.pid }
  | Ns_unknown of string
  | Ns_ok

type t = {
  kernel : Kernel.t;
  mutable server_pid : Ids.pid;
  table : (string, Ids.pid) Hashtbl.t;
}

let pid t = t.server_pid
let register_direct t ~name who = Hashtbl.replace t.table name who
let lookup_direct t ~name = Hashtbl.find_opt t.table name

let serve t (d : Delivery.t) =
  let k = t.kernel in
  match d.Delivery.msg.Message.body with
  | Ns_register { name; who } ->
      Hashtbl.replace t.table name who;
      Kernel.reply k d (Message.make Ns_ok)
  | Ns_lookup { name } -> (
      match Hashtbl.find_opt t.table name with
      | Some who -> Kernel.reply k d (Message.make (Ns_binding { name; who }))
      | None -> Kernel.reply k d (Message.make (Ns_unknown name)))
  | _ -> Kernel.reply k d (Message.make (Ns_unknown "bad request"))

let create kernel =
  let lh = Kernel.create_logical_host kernel ~priority:Cpu.Foreground in
  let t = { kernel; server_pid = Ids.pid 0 0; table = Hashtbl.create 32 } in
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
  let call k ~self ~server body =
    match Kernel.send k ~src:self ~dst:server (Message.make body) with
    | Ok m -> Ok m.Message.body
    | Error e -> Error (Format.asprintf "%a" Kernel.pp_send_error e)

  let register k ~self ~server ~name =
    match call k ~self ~server (Ns_register { name; who = self }) with
    | Ok Ns_ok -> Ok ()
    | Ok _ -> Error "register: unexpected reply"
    | Error e -> Error e

  let lookup k ~self ~server ~name =
    match call k ~self ~server (Ns_lookup { name }) with
    | Ok (Ns_binding { who; _ }) -> Ok who
    | Ok (Ns_unknown n) -> Error ("unknown name: " ^ n)
    | Ok _ -> Error "lookup: unexpected reply"
    | Error e -> Error e
end
