type 'a t = {
  queue : 'a Queue.t;
  mutable readers : (unit -> unit) list; (* newest first *)
}

let create () = { queue = Queue.create (); readers = [] }

let wake_one mb =
  match mb.readers with
  | [] -> ()
  | [ only ] ->
      (* Single blocked reader — the overwhelmingly common case on IPC
         inboxes — wakes without the rev/filter list churn below. *)
      mb.readers <- [];
      only ()
  | readers ->
      let oldest = List.hd (List.rev readers) in
      mb.readers <- List.filter (fun r -> r != oldest) readers;
      oldest ()

let send mb v =
  Queue.push v mb.queue;
  wake_one mb

let length mb = Queue.length mb.queue

let drain mb =
  let rec loop acc =
    match Queue.take_opt mb.queue with
    | None -> List.rev acc
    | Some v -> loop (v :: acc)
  in
  loop []

let rec recv mb =
  if not (Queue.is_empty mb.queue) then Queue.pop mb.queue
  else begin
    Proc.suspend (fun wake ->
        mb.readers <- wake :: mb.readers;
        fun () -> mb.readers <- List.filter (fun r -> r != wake) mb.readers);
    recv mb
  end

let recv_timeout engine mb span =
  let deadline = Time.add (Engine.now engine) span in
  let rec loop () =
    match Queue.take_opt mb.queue with
    | Some v -> Some v
    | None ->
        if Time.(Engine.now engine >= deadline) then None
        else begin
          (* Deregister both wake sources after resuming, whichever fired:
             a stale reader entry would otherwise swallow a later send. *)
          let timer = ref None in
          let wake_ref = ref (fun () -> ()) in
          let deregister () =
            (match !timer with Some h -> Engine.cancel h | None -> ());
            mb.readers <- List.filter (fun r -> r != !wake_ref) mb.readers
          in
          Proc.suspend (fun wake ->
              wake_ref := wake;
              timer := Some (Engine.schedule engine ~at:deadline wake);
              mb.readers <- wake :: mb.readers;
              deregister);
          deregister ();
          loop ()
        end
  in
  loop ()
