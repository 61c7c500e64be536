type t = {
  pid : Ids.pid;
  mutable thread : Proc.t option;
  inbox : Delivery.t Mailbox.t;
}

let create pid = { pid; thread = None; inbox = Mailbox.create () }

let pid t = t.pid

let attach_thread t proc =
  match t.thread with
  | Some _ -> invalid_arg "Vproc.attach_thread: thread already attached"
  | None -> t.thread <- Some proc

let thread t = t.thread

let inbox t = t.inbox

let kill t = Option.iter Proc.kill t.thread
let pause t = Option.iter Proc.pause t.thread
let unpause t = Option.iter Proc.unpause t.thread
