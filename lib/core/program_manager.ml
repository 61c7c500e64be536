(* Program creation: the environment-setup phase's typed marker. *)
type Tracer.event +=
  | Pm_created of { host : string; prog : string; lh : Ids.lh_id }

let () =
  Tracer.register_view (function
    | Pm_created { host; prog; lh } ->
        Tracer.view_as "pm" "created"
          [ ("host", Tracer.Str host); ("prog", Str prog); ("lh", Int lh) ]
    | _ -> None)

type t = {
  pm_kernel : Kernel.t;
  cfg : Config.t;
  directory : Directory.t;
  rng : Rng.t;
  tbl : Progtable.t;
  mutable pm_pid : Ids.pid;
  mutable is_accepting : bool;
  mutable pm_health : Health.t option;
  mutable pm_vp : Vproc.t option;
  mutable pm_pod : int option;
}

let pid t = t.pm_pid
let kernel t = t.pm_kernel
let table t = t.tbl
let programs t = Progtable.programs t.tbl

let guest_programs t =
  List.filter
    (fun p -> Logical_host.priority p.Progtable.p_lh = Cpu.Background)
    (programs t)

let accepting t = t.is_accepting
let set_accepting t b = t.is_accepting <- b
let health t = t.pm_health
let set_health t h = t.pm_health <- h

let eng t = Kernel.engine t.pm_kernel

(* Willingness policy for guest work: volunteering requires the owner's
   consent, spare memory beyond the program's needs, a bounded guest
   population, and an idle-enough processor (Section 2.1: hosts "with a
   reasonable amount of processor and memory resources available"). *)
let willing t ~bytes =
  t.is_accepting
  && Kernel.guest_count t.pm_kernel < t.cfg.Config.max_guests
  && Kernel.memory_free t.pm_kernel >= bytes + t.cfg.Config.min_free_memory
  && Cpu.queue_length (Kernel.cpu t.pm_kernel) <= 1

let answer_candidate t d =
  (* The measured 23 ms host-selection latency is dominated by this
     processing delay at the responding manager. *)
  let jitter =
    Rng.uniform_span t.rng Time.zero t.cfg.Config.candidacy_jitter
  in
  Proc.sleep (eng t) (Time.add t.cfg.Config.candidacy_delay jitter);
  Kernel.reply ~from:t.pm_pid t.pm_kernel d
    (Message.make
       (Protocol.Pm_candidate
          {
            host = Kernel.host_name t.pm_kernel;
            free_memory = Kernel.memory_free t.pm_kernel;
            guests = Kernel.guest_count t.pm_kernel;
          }))

(* Cleanup when a program's root process terminates: tear down the
   environment and answer completion waiters. Runs as its own process
   because exit hooks cannot block. *)
let reap t program =
  ignore
    (Proc.spawn (eng t) ~name:"reaper" (fun () ->
         let home = program.Progtable.p_home in
         let k = Progtable.kernel home in
         let failed =
           match Vproc.thread program.Progtable.p_root with
           | Some thread -> Proc.status thread <> Some Proc.Normal
           | None -> true
         in
         Proc.sleep (Kernel.engine k) t.cfg.Config.env_destroy;
         (match Kernel.find_lh k (Logical_host.id program.Progtable.p_lh) with
         | Some lh -> Kernel.destroy_logical_host k lh
         | None -> ());
         Progtable.remove home program;
         Progtable.finish program ~cpu_used:program.Progtable.p_cpu_used ~failed))

let handle_create t d ~prog ~env ~priority ~explicit_host =
  let k = t.pm_kernel in
  let fail m = Kernel.reply k d (Message.make (Protocol.Pm_create_failed m)) in
  match Programs.find prog with
  | exception Not_found -> fail ("unknown program: " ^ prog)
  | spec -> (
      let image_bytes =
        spec.Programs.image.File_server.code_bytes
        + spec.Programs.image.File_server.data_bytes
        + spec.Programs.image.File_server.active_bytes
      in
      if Kernel.memory_free k < image_bytes then fail "insufficient memory"
      else if
        priority = Cpu.Background && (not explicit_host)
        && not (willing t ~bytes:image_bytes)
      then
        (* Admission control at creation, not just candidacy: between
           volunteering and the creation request arriving, other guests
           may have claimed this workstation (many "@ *" selections race
           for the same first responder). The requester re-selects. *)
        fail "not willing"
      else begin
        let t0 = Engine.now (eng t) in
        (* Set up the execution environment (address space, initial
           process, argument/environment initialization). *)
        Proc.sleep (eng t) t.cfg.Config.env_setup;
        let lh = Kernel.create_logical_host k ~priority in
        let setup = Time.sub (Engine.now (eng t)) t0 in
        let t1 = Engine.now (eng t) in
        (* Load the image from the (network) file server. With content
           caching on, probe the local cache for each chunk first (the
           spec names the image and its sizes, so chunk digests are
           computable before any bytes move) and request only the
           missing ones — a pod relaunching a program the file server
           already announced pays one IPC round trip, not 330 ms/100 KB. *)
        let loaded =
          if Kernel.content_caching k then begin
            let cache = Kernel.content_cache k in
            let chunks = File_server.image_chunks spec.Programs.image in
            let cb = File_server.chunk_bytes in
            let missing = ref 0 in
            for i = 0 to chunks - 1 do
              if
                not
                  (Content_cache.probe cache
                     ~digest:(Pagehash.image_chunk ~image:prog ~index:i)
                     ~bytes:cb)
              then incr missing
            done;
            let miss_bytes = !missing * cb in
            let hit = chunks - !missing in
            Kernel.add k Kernel.Img_chunks_hit hit;
            Kernel.add k Kernel.Img_chunks_miss !missing;
            Kernel.emit k (fun () ->
                if !missing = 0 then
                  Kernel.Img_cache_hit
                    {
                      host = Kernel.host_name k;
                      image = prog;
                      chunks;
                      bytes = hit * cb;
                    }
                else
                  Kernel.Img_cache_miss
                    {
                      host = Kernel.host_name k;
                      image = prog;
                      chunks = !missing;
                      bytes = miss_bytes;
                    });
            File_server.Client.load_delta k ~self:t.pm_pid
              ~server:env.Env.file_server ~name:prog ~missing:!missing
              ~bytes:miss_bytes
          end
          else
            File_server.Client.load_image k ~self:t.pm_pid
              ~server:env.Env.file_server ~name:prog
        in
        match loaded with
        | Error m ->
            Kernel.destroy_logical_host k lh;
            fail ("image load failed: " ^ m)
        | Ok img ->
            let load = Time.sub (Engine.now (eng t)) t1 in
            let space =
              Address_space.create ~image:prog
                ~code_bytes:img.File_server.code_bytes
                ~data_bytes:img.File_server.data_bytes
                ~active_bytes:img.File_server.active_bytes ()
            in
            Logical_host.add_space lh space;
            let model = Dirty_model.create spec.Programs.dirty space in
            let root = Kernel.create_process k lh in
            let program =
              Progtable.add t.tbl ~lh ~spec ~env ~root ~space ~model
                ~origin:env.Env.origin_host
            in
            let body_rng = Rng.split t.rng in
            Kernel.start_process k root ~name:prog (fun vp ->
                Program.body t.directory body_rng program vp);
            (match Vproc.thread root with
            | Some thread -> Proc.on_exit thread (fun _ -> reap t program)
            | None -> ());
            Kernel.emit k (fun () ->
                Pm_created
                  { host = Kernel.host_name k; prog; lh = Logical_host.id lh });
            Kernel.reply k d
              (Message.make
                 (Protocol.Pm_created
                    { root = Vproc.pid root; lh = Logical_host.id lh; setup; load }))
      end)

let handle_wait t d ~lh =
  let k = t.pm_kernel in
  match Progtable.find t.tbl lh with
  | None -> Kernel.reply k d (Message.make (Protocol.Pm_no_such_program lh))
  | Some p -> (
      match p.Progtable.p_status with
      | Progtable.Done { at; cpu_used; failed } ->
          Kernel.reply k d
            (Message.make
               (Progtable.Pm_exited
                  {
                    wall = Time.sub at p.Progtable.p_started;
                    cpu = cpu_used;
                    ok = not failed;
                  }))
      | Progtable.Running | Progtable.Migrating | Progtable.Suspended ->
          Progtable.add_waiter p d)

let status_string = function
  | Progtable.Running -> "running"
  | Progtable.Migrating -> "migrating"
  | Progtable.Suspended -> "suspended"
  | Progtable.Done _ -> "done"

(* Suspension is the freeze machinery without a copy: the same facility
   works for local and remote programs because it is addressed like
   everything else (Section 2: "facilities for terminating, suspending
   and debugging programs work independent of whether the program is
   executing locally or remotely"). *)
let handle_suspend t d ~lh =
  let k = t.pm_kernel in
  match (Progtable.find t.tbl lh, Kernel.find_lh k lh) with
  | Some p, Some lhost when p.Progtable.p_status = Progtable.Running ->
      Kernel.freeze_lh k lhost;
      p.Progtable.p_status <- Progtable.Suspended;
      Kernel.reply k d (Message.make Protocol.Pm_ok)
  | Some _, _ -> Kernel.reply k d (Message.make (Protocol.Pm_refused "not running"))
  | None, _ -> Kernel.reply k d (Message.make (Protocol.Pm_no_such_program lh))

let handle_resume t d ~lh =
  let k = t.pm_kernel in
  match (Progtable.find t.tbl lh, Kernel.find_lh k lh) with
  | Some p, Some lhost when p.Progtable.p_status = Progtable.Suspended ->
      p.Progtable.p_status <- Progtable.Running;
      Kernel.unfreeze_lh k lhost;
      Kernel.reply k d (Message.make Protocol.Pm_ok)
  | Some _, _ -> Kernel.reply k d (Message.make (Protocol.Pm_refused "not suspended"))
  | None, _ -> Kernel.reply k d (Message.make (Protocol.Pm_no_such_program lh))

let handle_destroy t d ~lh =
  let k = t.pm_kernel in
  match Progtable.find t.tbl lh with
  | None -> Kernel.reply k d (Message.make (Protocol.Pm_no_such_program lh))
  | Some _ ->
      (match Kernel.find_lh k lh with
      | Some lhost ->
          (* Killing the root process triggers the normal reaper, which
             destroys the environment and answers waiters. *)
          List.iter Vproc.kill (Logical_host.processes lhost)
      | None -> ());
      Kernel.reply k d (Message.make Protocol.Pm_ok)

(* migrateprog: remove one program (or every guest) from this
   workstation. Runs as a spawned migration manager so the program
   manager keeps servicing requests during the transfer. *)
let handle_migrate t d ~lh ~dest ~force_destroy ~strategy =
  let k = t.pm_kernel in
  ignore
    (Proc.spawn (eng t) ~name:"migration-manager" (fun () ->
         let targets =
           match lh with
           | Some id -> (
               match Progtable.find t.tbl id with Some p -> [ p ] | None -> [])
           | None -> guest_programs t
         in
         if targets = [] then
           Kernel.reply k d
             (Message.make (Protocol.Pm_migrate_failed "no such program"))
         else begin
           let dest_sel =
             match dest with
             | None -> None
             | Some host -> (
                 match
                   Scheduler.Spine.select_host ?health:t.pm_health k t.cfg
                     ~self:t.pm_pid ~host
                 with
                 | Ok s -> Some s
                 | Error _ -> None)
           in
           let outcomes, failures =
             List.fold_left
               (fun (oks, errs) p ->
                 match
                   Migration.migrate ?health:t.pm_health ~kernel:k ~cfg:t.cfg
                     ~rng:t.rng ~table:t.tbl ~self:t.pm_pid ~program:p
                     ?dest:dest_sel ~strategy ()
                 with
                 | Ok o -> (o :: oks, errs)
                 | Error e ->
                     if force_destroy then begin
                       (* The paper's -n flag: no host found, remove the
                          program by destroying it. *)
                       (match
                          Kernel.find_lh k (Logical_host.id p.Progtable.p_lh)
                        with
                       | Some lh -> Kernel.destroy_logical_host k lh
                       | None -> ());
                       (oks, errs)
                     end
                     else (oks, Format.asprintf "%a" Migration.pp_error e :: errs))
               ([], []) targets
           in
           match failures with
           | [] ->
               Kernel.reply k d
                 (Message.make (Protocol.Pm_migrated (List.rev outcomes)))
           | f :: _ ->
               Kernel.reply k d (Message.make (Protocol.Pm_migrate_failed f))
         end))

let serve t d =
  let k = t.pm_kernel in
  match (d : Delivery.t).Delivery.msg.Message.body with
  | Protocol.Pm_query_candidates { bytes; exclude } ->
      let excluded = List.mem (Kernel.host_name k) exclude in
      if (not excluded) && willing t ~bytes then answer_candidate t d
  | Protocol.Pm_query_host { host } ->
      if String.equal host (Kernel.host_name k) then answer_candidate t d
  | Protocol.Pm_create_program { prog; env; priority; explicit_host } ->
      handle_create t d ~prog ~env ~priority ~explicit_host
  | Protocol.Pm_wait { lh } -> handle_wait t d ~lh
  | Protocol.Pm_suspend { lh } -> handle_suspend t d ~lh
  | Protocol.Pm_resume { lh } -> handle_resume t d ~lh
  | Protocol.Pm_destroy { lh } -> handle_destroy t d ~lh
  | Protocol.Pm_reserve { temp_lh; lh = _; bytes } ->
      if willing t ~bytes && Kernel.reserve_lh k ~temp_lh ~bytes then
        Kernel.reply k d (Message.make Protocol.Pm_reserved)
      else Kernel.reply k d (Message.make (Protocol.Pm_refused "not willing"))
  | Protocol.Pm_cancel_reserve { temp_lh } ->
      Kernel.cancel_reservation k ~temp_lh;
      Kernel.reply k d (Message.make Protocol.Pm_ok)
  | Protocol.Pm_adopt program ->
      Progtable.adopt t.tbl program;
      Kernel.reply k d (Message.make Protocol.Pm_adopted)
  | Protocol.Pm_migrate { lh; dest; force_destroy; strategy } ->
      handle_migrate t d ~lh ~dest ~force_destroy ~strategy
  | Protocol.Pm_list_programs ->
      let listing =
        List.map
          (fun p ->
            ( p.Progtable.p_spec.Programs.prog_name,
              Logical_host.id p.Progtable.p_lh,
              status_string p.Progtable.p_status ))
          (programs t)
      in
      Kernel.reply ~from:t.pm_pid k d
        (Message.make
           (Protocol.Pm_programs
              {
                host = Kernel.host_name k;
                programs = listing;
                guests =
                  List.filter_map
                    (fun p ->
                      if p.Progtable.p_status = Progtable.Running then
                        Some (Logical_host.id p.Progtable.p_lh)
                      else None)
                    (guest_programs t);
              }))
  | _ -> Kernel.reply k d (Message.make (Protocol.Pm_refused "unknown request"))

let create ?(accepting = true) k ~cfg ~directory ~rng =
  let t =
    {
      pm_kernel = k;
      cfg;
      directory;
      rng;
      tbl = Progtable.create k;
      pm_pid = Ids.pid 0 0;
      is_accepting = accepting;
      pm_health = None;
      pm_vp = None;
      pm_pod = None;
    }
  in
  let vp =
    Kernel.system_process k ~index:Ids.program_manager_index
      ~name:(Kernel.host_name k ^ ":pm")
      (fun vp ->
        let rec loop () =
          serve t (Kernel.receive k vp);
          loop ()
        in
        loop ())
  in
  t.pm_pid <- Vproc.pid vp;
  t.pm_vp <- Some vp;
  Kernel.join_group k ~group:Ids.program_manager_group vp;
  t

let join_pod t ~pod =
  match t.pm_vp with
  | None -> ()
  | Some vp ->
      t.pm_pod <- Some pod;
      Kernel.join_group t.pm_kernel ~group:(Ids.pod_group pod) vp

let pod t = t.pm_pod
