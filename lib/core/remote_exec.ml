type target = Local | Named of string | Any

type Tracer.event +=
  | Reexec of {
      prog : string;
      lost_on : string;
      error : string;
      attempts_left : int;
    }

let () =
  Tracer.register_view (function
    | Reexec { prog; lost_on; error; attempts_left } ->
        Tracer.view_as "exec" "reexec"
          [
            ("prog", Tracer.Str prog);
            ("lost_on", Str lost_on);
            ("error", Str error);
            ("attempts_left", Int attempts_left);
          ]
    | _ -> None)

type timings = {
  t_select : Time.span option;
  t_setup : Time.span;
  t_load : Time.span;
  t_total : Time.span;
}

type handle = {
  h_pm : Ids.pid;
  h_host : string;
  h_lh : Ids.lh_id;
  h_root : Ids.pid;
  h_timings : timings;
}

let image_bytes prog =
  match Programs.find prog with
  | spec -> File_server.image_bytes spec.Programs.image
  | exception Not_found -> 0

let rec exec_with ~attempts (ctx : Context.t) ~prog ~target =
  let k = ctx.Context.kernel in
  let self = ctx.Context.self in
  let env = ctx.Context.env in
  let eng = Kernel.engine k in
  let t0 = Engine.now eng in
  let selection =
    match target with
    | Local ->
        Ok
          {
            Scheduler.s_pm =
              Ids.program_manager_of (Logical_host.id (Kernel.host_lh k));
            s_host = Kernel.host_name k;
            s_responded_in = Time.zero;
          }
    | Named host ->
        Placement.select_host ?health:ctx.Context.health ctx.Context.placement
          k ~self ~host
    | Any ->
        Placement.select_any ?health:ctx.Context.health ctx.Context.placement
          k ~self ~bytes:(image_bytes prog)
  in
  match selection with
  | Error e -> Error e
  | Ok { Scheduler.s_pm = pm; s_host = host; s_responded_in } -> (
      let local = target = Local in
      let t_select = if local then None else Some s_responded_in in
      let priority = if local then Cpu.Foreground else Cpu.Background in
      let explicit_host = target <> Any in
      (* A selection that does not stick must give its pod in-flight
         credit back; Placement.note_result owns that. *)
      let placement_failed () =
        if not local then
          Placement.note_result ctx.Context.placement ~host ~ok:false
      in
      match
        Kernel.send k ~src:self ~dst:pm
          (Message.make
             (Protocol.Pm_create_program { prog; env; priority; explicit_host }))
      with
      | Ok { Message.body = Protocol.Pm_created { root; lh; setup; load }; _ }
        ->
          (* Seed the binding cache for the new logical host from the
             manager's station — the requester plainly knows where it
             just created the program. (In the Demos/MP forwarding
             ablation this initial binding is the only way to reach it.) *)
          (match Kernel.lookup_binding k pm.Ids.lh with
          | Some station -> Kernel.set_binding k lh station
          | None -> ());
          Ok
            {
              h_pm = pm;
              h_host = host;
              h_lh = lh;
              h_root = root;
              h_timings =
                {
                  t_select;
                  t_setup = setup;
                  t_load = load;
                  t_total = Time.sub (Engine.now eng) t0;
                };
            }
      | Ok { Message.body = Protocol.Pm_create_failed m; _ } ->
          placement_failed ();
          (* A volunteer may have filled up since it answered the query
             (selection races under bursts of "@ *"); pick again. *)
          if String.equal m "not willing" && target = Any && attempts > 1 then begin
            Proc.sleep eng (Time.of_ms 50.);
            exec_with ~attempts:(attempts - 1) ctx ~prog ~target
          end
          else Error m
      | Ok _ ->
          placement_failed ();
          Error "malformed creation reply"
      | Error e ->
          placement_failed ();
          Error (Format.asprintf "%a" Kernel.pp_send_error e))

(* A volunteer that filled up between answering the query and receiving
   the creation request causes re-selection, up to five tries in all. *)
let exec ctx ~prog ~target = exec_with ~attempts:5 ctx ~prog ~target

let wait (ctx : Context.t) handle =
  let k = ctx.Context.kernel in
  (* Address the program manager through the program's logical-host id:
     this resolves to whichever workstation the program lives on now, so
     waiting is oblivious to migrations (Section 2.1's local groups). *)
  let pm = Ids.program_manager_of handle.h_lh in
  match
    Kernel.send k ~src:ctx.Context.self ~dst:pm
      (Message.make (Protocol.Pm_wait { lh = handle.h_lh }))
  with
  | Ok { Message.body = Progtable.Pm_exited { wall; cpu; ok }; _ } ->
      if ok then Ok (wall, cpu) else Error "program failed"
  | Ok { Message.body = Protocol.Pm_no_such_program _; _ } ->
      Error "no such program"
  | Ok _ -> Error "malformed wait reply"
  | Error e -> Error (Format.asprintf "%a" Kernel.pp_send_error e)

let manage (ctx : Context.t) handle body =
  match
    Kernel.send ctx.Context.kernel ~src:ctx.Context.self
      ~dst:(Ids.program_manager_of handle.h_lh)
      (Message.make body)
  with
  | Ok { Message.body = Protocol.Pm_ok; _ } -> Ok ()
  | Ok { Message.body = Protocol.Pm_refused m; _ } -> Error m
  | Ok { Message.body = Protocol.Pm_no_such_program _; _ } ->
      Error "no such program"
  | Ok _ -> Error "malformed reply"
  | Error e -> Error (Format.asprintf "%a" Kernel.pp_send_error e)

let suspend ctx handle =
  manage ctx handle (Protocol.Pm_suspend { lh = handle.h_lh })

let resume ctx handle =
  manage ctx handle (Protocol.Pm_resume { lh = handle.h_lh })

let destroy ctx handle =
  manage ctx handle (Protocol.Pm_destroy { lh = handle.h_lh })

type migrate_error = Refused of string | No_answer of string

let migrate_error_message = function Refused m | No_answer m -> m

let migrate ?(strategy = Protocol.Precopy) ?dest ?(force_destroy = false) k
    ~self ~pm lh =
  match
    Kernel.send k ~src:self ~dst:pm
      (Message.make (Protocol.Pm_migrate { lh; dest; force_destroy; strategy }))
  with
  | Ok { Message.body = Protocol.Pm_migrated os; _ } -> Ok os
  | Ok { Message.body = Protocol.Pm_migrate_failed m; _ } -> Error (Refused m)
  | Ok _ -> Error (No_answer "malformed migrate reply")
  | Error e -> Error (No_answer (Format.asprintf "%a" Kernel.pp_send_error e))

let survey k ~self ~group ~window =
  let c =
    Kernel.send_group k ~src:self ~group
      (Message.make Protocol.Pm_list_programs)
  in
  List.filter_map
    (fun (pm, (m : Message.t)) ->
      match m.Message.body with
      | Protocol.Pm_programs { host; programs; guests } ->
          Some (pm, host, programs, guests)
      | _ -> None)
    (Kernel.collect_within k c ~window)

let migrate_program ?strategy ?dest ?pm (ctx : Context.t) handle =
  let pm = Option.value pm ~default:(Ids.program_manager_of handle.h_lh) in
  match
    migrate ?strategy ?dest ctx.Context.kernel ~self:ctx.Context.self ~pm
      (Some handle.h_lh)
  with
  | Ok [ o ] -> Ok o
  | Ok _ -> Error (No_answer "malformed migrate reply")
  | Error e -> Error e

(* Wait errors that mean the program's host died under it (as opposed to
   the program itself failing): the send machine gave up reaching any
   manager through the program's logical-host id, or a rebooted manager
   answered but has never heard of the program. *)
let host_failure_error = function
  | "no-response" | "no such program" -> true
  | _ -> false

let rec exec_and_wait ?(on_host_failure = `Fail) (ctx : Context.t) ~prog
    ~target =
  match exec ctx ~prog ~target with
  | Error e -> Error e
  | Ok handle -> (
      match wait ctx handle with
      | Ok (wall, cpu) ->
          Placement.release ctx.Context.placement ~host:handle.h_host;
          Ok (handle, wall, cpu)
      | Error e -> (
          Placement.release ctx.Context.placement ~host:handle.h_host;
          match on_host_failure with
          | `Reexec attempts when host_failure_error e && attempts > 0 ->
              (* At-least-once semantics: the program is re-run from
                 scratch somewhere else. Callers opting in must tolerate
                 re-execution of side effects. *)
              Kernel.emit ctx.Context.kernel (fun () ->
                  Reexec
                    {
                      prog;
                      lost_on = handle.h_host;
                      error = e;
                      attempts_left = attempts - 1;
                    });
              exec_and_wait
                ~on_host_failure:(`Reexec (attempts - 1))
                ctx ~prog ~target
          | `Reexec _ | `Fail -> Error e))
