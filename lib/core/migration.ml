type error =
  | No_host of string
  | Refused of string
  | Transfer_failed of string
  | Budget_exceeded of string

let pp_error ppf = function
  | No_host m -> Format.fprintf ppf "no host: %s" m
  | Refused m -> Format.fprintf ppf "refused: %s" m
  | Transfer_failed m -> Format.fprintf ppf "transfer failed: %s" m
  | Budget_exceeded m -> Format.fprintf ppf "budget exceeded: %s" m

(* Typed phase-transition events. Rounds are numbered from 1 (the
   initial full copy); per-round events are emitted as each round's
   acknowledgement lands, so monitors see them interleaved with the
   guest's own activity. The convergence monitor asserts the emitted
   [bytes] sequence is non-increasing. *)
type Tracer.event +=
  | Mig_start of {
      lh : Ids.lh_id;
      prog : string;
      from_host : string;
      strategy : string;
    }
  | Mig_budget of { lh : Ids.lh_id; freeze : Time.span; transfer : Time.span }
  | Mig_dest of { lh : Ids.lh_id; dest : string }
  | Mig_round of { lh : Ids.lh_id; round : int; bytes : int; span : Time.span }
  | Mig_frozen_residue of { lh : Ids.lh_id; bytes : int }
  | Mig_committed of {
      lh : Ids.lh_id;
      from_host : string;
      dest : string;
      freeze : Time.span;
    }
  | Mig_aborted of { lh : Ids.lh_id; reason : string }

let () =
  Tracer.register_view (function
    | Mig_start { lh; prog; from_host; strategy } ->
        Tracer.view_as "migrate" "start"
          [
            ("lh", Tracer.Int lh);
            ("prog", Str prog);
            ("from", Str from_host);
            ("strategy", Str strategy);
          ]
    | Mig_budget { lh; freeze; transfer } ->
        Tracer.view_as "migrate" "budget"
          [
            ("lh", Tracer.Int lh);
            ("freeze", Span freeze);
            ("transfer", Span transfer);
          ]
    | Mig_dest { lh; dest } ->
        Tracer.view_as "migrate" "dest"
          [ ("lh", Tracer.Int lh); ("dest", Str dest) ]
    | Mig_round { lh; round; bytes; span } ->
        Tracer.view_as "migrate" "round"
          [
            ("lh", Tracer.Int lh);
            ("round", Int round);
            ("bytes", Int bytes);
            ("span", Span span);
          ]
    | Mig_frozen_residue { lh; bytes } ->
        Tracer.view_as "migrate" "frozen_residue"
          [ ("lh", Tracer.Int lh); ("bytes", Int bytes) ]
    | Mig_committed { lh; from_host; dest; freeze } ->
        Tracer.view_as "migrate" "committed"
          [
            ("lh", Tracer.Int lh);
            ("from", Str from_host);
            ("dest", Str dest);
            ("freeze", Span freeze);
          ]
    | Mig_aborted { lh; reason } ->
        Tracer.view_as "migrate" "aborted"
          [ ("lh", Tracer.Int lh); ("reason", Str reason) ]
    | _ -> None)

let kernel_state_span lh =
  let objects =
    Logical_host.process_count lh + List.length (Logical_host.spaces lh)
  in
  Time.add Config.kernel_state_base
    (Time.mul Config.kernel_state_per_object objects)

(* What the freeze window must move — and so what a strategy copies
   while the program runs. Pre-copy and VM-flush copy the image while it
   runs and leave the pages dirtied since the last round ([Dirty]);
   freeze-and-copy, the "simplest approach" of Section 3.1, moves the
   whole image frozen ([Whole]); copy-on-reference moves only kernel
   state and faults pages from the source afterwards ([Nothing]). The
   same three cases select the pages of a copy round. *)
type plan = Dirty | Whole | Nothing

let freeze_plan = function
  | Protocol.Precopy | Protocol.Vm_flush _ -> Dirty
  | Protocol.Freeze_and_copy -> Whole
  | Protocol.Copy_on_reference -> Nothing

let plan_bytes plan lh =
  match plan with
  | Dirty -> Logical_host.dirty_bytes lh
  | Whole -> Logical_host.total_bytes lh
  | Nothing -> 0

(* {2 Content-addressed manifests}

   With content caching on (Os_params.content_cache_bytes > 0), every
   copy step names its chunks first — a manifest of the pages it is
   about to move, as two flat arrays (each page's digest and its bytes)
   — and ships only what the destination's cache is missing (DESIGN.md
   §4k). The manifest must be read before the step clears the dirty
   bits; it is empty when caching is off. *)
let no_manifest = ([||], [||])

let manifest kernel plan lh =
  if not (Kernel.content_caching kernel) then no_manifest
  else
    let spaces = Logical_host.spaces lh in
    let pages sp =
      match plan with
      | Dirty -> Address_space.dirty_count sp
      | Whole -> Address_space.pages sp
      | Nothing -> 0
    in
    let n = List.fold_left (fun a sp -> a + pages sp) 0 spaces in
    let digests = Array.make n 0 and chunk_bytes = Array.make n 0 in
    let i = ref 0 in
    List.iter
      (fun sp ->
        let pb = Address_space.page_bytes sp in
        let add p =
          digests.(!i) <- Address_space.page_digest sp p;
          chunk_bytes.(!i) <- pb;
          incr i
        in
        match plan with
        | Dirty -> Address_space.iter_dirty sp add
        | Whole -> for p = 0 to pages sp - 1 do add p done
        | Nothing -> ())
      spaces;
    (digests, chunk_bytes)

(* 8 wire bytes per manifest entry (a 48-bit digest plus framing). The
   manifest rides the request message up to the 1 KB segment limit;
   anything beyond that is charged as bulk data ahead of the send. *)
let manifest_entry_bytes = 8

(* Budgeted copies are cut into chunks so the deadline is checked while
   the bytes move, not only after; unbudgeted copies keep the original
   single-transfer path (and its exact timing). *)
let chunk_bytes = 256 * 1024

let bounded_transfer kernel ~deadline ~temp_lh ~bytes =
  let to_station () = Kernel.lookup_binding kernel temp_lh in
  match deadline with
  | None ->
      Kernel.bulk_transfer ?to_station:(to_station ()) kernel ~bytes;
      Ok ()
  | Some dl ->
      let eng = Kernel.engine kernel in
      let rec chunks remaining =
        if remaining <= 0 then Ok ()
        else if Time.(Engine.now eng > dl) then
          Error (Budget_exceeded "budget exhausted mid-copy")
        else begin
          Kernel.bulk_transfer ?to_station:(to_station ()) kernel
            ~bytes:(min chunk_bytes remaining);
          chunks (remaining - chunk_bytes)
        end
      in
      chunks bytes

let send_failed e =
  Transfer_failed (Format.asprintf "%a" Kernel.pp_send_error e)

(* One transfer step toward the destination, under [deadline]: with a
   manifest, exchange it with the destination's kernel server first and
   move only the bytes it reports missing. The source also remembers
   every chunk it offered — it holds that content, so a later
   migrate-back (or any transfer of shared content toward this host) can
   skip the bytes. *)
let ship kernel ~deadline ~self ~temp_lh ~lh_id ~label (digests, chunk_bytes)
    ~bytes =
  let n = Array.length digests in
  let need =
    if n = 0 then Ok bytes
    else begin
      let cache = Kernel.content_cache kernel in
      let total = ref 0 in
      for i = 0 to n - 1 do
        total := !total + chunk_bytes.(i);
        Content_cache.insert cache ~digest:digests.(i) ~bytes:chunk_bytes.(i)
      done;
      let wire = manifest_entry_bytes * n in
      let msg_bytes = min Message.max_bytes (Message.short_bytes + wire) in
      let overflow = wire - (msg_bytes - Message.short_bytes) in
      Kernel.add kernel Kernel.Xfer_manifest_bytes (Message.short_bytes + wire);
      Result.bind
        (if overflow > 0 then
           bounded_transfer kernel ~deadline ~temp_lh ~bytes:overflow
         else Ok ())
        (fun () ->
          match
            Kernel.send ?deadline kernel ~src:self
              ~dst:(Ids.kernel_server_of temp_lh)
              (Message.make ~bytes:msg_bytes
                 (Kernel.Ks_xfer_manifest
                    { lh = lh_id; label; digests; chunk_bytes }))
          with
          | Ok { Message.body = Kernel.Ks_xfer_need { bytes }; _ }
            ->
              Kernel.add kernel Kernel.Xfer_bytes_shipped bytes;
              Kernel.add kernel Kernel.Xfer_bytes_saved (!total - bytes);
              Ok bytes
          | Ok _ -> Error (Transfer_failed "unexpected manifest reply")
          | Error e -> (
              (* A send cut off by its budget deadline is a budget abort;
                 any other failure is the destination's. *)
              match deadline with
              | Some dl when Time.(Engine.now (Kernel.engine kernel) >= dl) ->
                  Error (Budget_exceeded "budget exhausted mid-copy")
              | Some _ | None -> Error (send_failed e)))
    end
  in
  Result.bind need (fun need ->
      bounded_transfer kernel ~deadline ~temp_lh ~bytes:need)

(* How long [bytes] take at the copy rate observed in [round] — the
   basis for the predictive budget checks. *)
let estimated_span { Protocol.r_bytes; r_span } bytes =
  if r_bytes <= 0 then Time.zero
  else
    let us_per_byte =
      float_of_int (Time.to_us r_span) /. float_of_int r_bytes
    in
    Time.of_us (int_of_float (ceil (us_per_byte *. float_of_int bytes)))

(* Step 3, the program still running (Section 3.1.2): one full copy of
   the address spaces (round 1), then rounds of the pages dirtied
   meanwhile, until the residue is small, stops shrinking, or the round
   limit is reached. Every round snapshots its manifest, clears the
   dirty bits, ships, and confirms the destination is still alive with
   a kernel-server ping through the temporary id — the ping's failure is
   Section 3.1.3's "copy operation fails due to lack of
   acknowledgement". Under a transfer deadline, a round predicted (at
   the full copy's observed rate) to blow it aborts the copy phase up
   front. *)
let precopy kernel (cfg : Config.t) ~deadline ~self ~temp_lh ~lh =
  let eng = Kernel.engine kernel in
  let lh_id = Logical_host.id lh in
  let round k plan label =
    let t0 = Engine.now eng in
    let bytes = plan_bytes plan lh in
    let m = manifest kernel plan lh in
    ignore (Logical_host.clear_dirty lh);
    Result.bind (ship kernel ~deadline ~self ~temp_lh ~lh_id ~label m ~bytes)
      (fun () ->
        match
          Kernel.send kernel ~src:self
            ~dst:(Ids.kernel_server_of temp_lh)
            (Message.make Kernel.Ks_ping)
        with
        | Ok { Message.body = Kernel.Ks_pong; _ } ->
            let span = Time.sub (Engine.now eng) t0 in
            Kernel.emit kernel (fun () ->
                Mig_round { lh = lh_id; round = k; bytes; span });
            Ok { Protocol.r_bytes = bytes; r_span = span }
        | Ok _ -> Error (Transfer_failed "unexpected ping reply")
        | Error e -> Error (send_failed e))
  in
  let rec rounds first k ~last acc =
    let residue = Logical_host.dirty_bytes lh in
    if
      residue <= cfg.Config.precopy_min_residue
      || k >= Config.precopy_max_rounds
      || float_of_int residue
         >= cfg.Config.precopy_improvement *. float_of_int last
    then Ok (List.rev acc)
    else
      let doomed =
        match deadline with
        | Some dl ->
            Time.(Time.add (Engine.now eng) (estimated_span first residue) > dl)
        | None -> false
      in
      if doomed then
        Error
          (Budget_exceeded "next pre-copy round would blow the transfer budget")
      else
        Result.bind (round (k + 1) Dirty "round") (fun r ->
            rounds first (k + 1) ~last:residue (r :: acc))
  in
  Result.bind (round 1 Whole "full") (fun first ->
      rounds first 1 ~last:first.Protocol.r_bytes [ first ])

let cancel_reservation_best_effort kernel ~self ~pm ~temp_lh =
  ignore
    (Kernel.send kernel ~src:self ~dst:pm
       (Message.make (Protocol.Pm_cancel_reserve { temp_lh })))

(* The per-strategy deadline budget when [cfg.budgeted], sized for the
   paper's calibration: the freeze bound comfortably covers kernel-state
   copy plus a small residue at the 3 s/MB bulk rate, and the transfer
   bound caps the whole running copy phase. Freeze-and-copy moves the
   entire image frozen, so its freeze budget is the transfer-scale one. *)
let budget_for (cfg : Config.t) plan =
  if not cfg.Config.budgeted then None
  else
    let freeze =
      match plan with
      | Whole -> Time.of_sec 30.
      | Dirty | Nothing -> Time.of_ms 600.
    in
    Some { Config.bg_freeze = freeze; bg_transfer = Time.of_sec 30. }

(* Covers the install request's IPC cost (and a successful ack's return
   trip) in the pre-freeze estimate. *)
let install_margin = Time.of_ms 20.

(* How long past the freeze deadline the source waits for the install
   acknowledgement. The destination refuses installs arriving after the
   deadline itself, so this slack only gives an in-time ack the wire
   time to come home before the source assumes failure. *)
let ack_slack = Time.of_ms 50.

(* One pass of the five-step protocol. Besides the outcome, report which
   destination was tried (None if failure struck before selection), so a
   retry can exclude it when re-running host selection. *)
let attempt ?health ~kernel ~cfg ~self ~program ?dest ~exclude ~strategy () =
  let plan = freeze_plan strategy in
  let eng = Kernel.engine kernel in
  let lh = program.Progtable.p_lh in
  let lh_id = Logical_host.id lh in
  let my_host = Kernel.host_name kernel in
  let t_start = Engine.now eng in
  let budget = budget_for cfg plan in
  program.Progtable.p_status <- Progtable.Migrating;
  Kernel.emit kernel (fun () ->
      Mig_start
        {
          lh = lh_id;
          prog = program.Progtable.p_spec.Programs.prog_name;
          from_host = my_host;
          strategy = Protocol.strategy_name strategy;
        });
  (match budget with
  | Some b ->
      Kernel.emit kernel (fun () ->
          Mig_budget
            {
              lh = lh_id;
              freeze = b.Config.bg_freeze;
              transfer = b.Config.bg_transfer;
            })
  | None -> ());
  let finish_with result =
    (match result with
    | Ok o ->
        Kernel.emit kernel (fun () ->
            Mig_committed
              {
                lh = lh_id;
                from_host = my_host;
                dest = o.Protocol.m_dest;
                freeze = Protocol.freeze_span o;
              })
    | Error (e, _) ->
        Kernel.emit kernel (fun () ->
            Mig_aborted { lh = lh_id; reason = Format.asprintf "%a" pp_error e }));
    (match program.Progtable.p_status with
    | Progtable.Migrating -> program.Progtable.p_status <- Progtable.Running
    | _ -> ());
    result
  in
  (* Step 1: locate a willing destination. *)
  let dest =
    match dest with
    | Some d -> Ok d
    | None ->
        Result.map_error
          (fun m -> No_host m)
          (Scheduler.Spine.select_in_group ?health
             ~exclude:(my_host :: exclude) kernel
             ~group:Ids.program_manager_group ~self
             ~bytes:(Logical_host.total_bytes lh))
  in
  match dest with
  | Error e -> finish_with (Error (e, None))
  | Ok dest ->
  Kernel.emit kernel (fun () ->
      Mig_dest { lh = lh_id; dest = dest.Scheduler.s_host });
  let fail e = finish_with (Error (e, Some dest.Scheduler.s_host)) in
  (* Step 2: initialize the new host under a temporary id. *)
  let temp_lh = Ids.Lh_allocator.fresh (Kernel.allocator kernel) in
  let reserved =
    match
      Kernel.send kernel ~src:self ~dst:dest.Scheduler.s_pm
        (Message.make
           (Protocol.Pm_reserve
              { temp_lh; bytes = Logical_host.total_bytes lh }))
    with
    | Ok { Message.body = Protocol.Pm_reserved; _ } -> Ok ()
    | Ok { Message.body = Protocol.Pm_refused m; _ } -> Error (Refused m)
    | Ok _ -> Error (Refused "malformed reservation reply")
    | Error e -> Error (send_failed e)
  in
  (* The cleanup each later stage owes on failure: the reservation
     before the freeze; the freeze, then the reservation, while frozen;
     after extract, the old copy — "we assume that the new host failed
     and that the logical host has not been transferred" — unless this
     host crashed meanwhile, taking the old copy with it. *)
  let abort_reserved e =
    cancel_reservation_best_effort kernel ~self ~pm:dest.Scheduler.s_pm
      ~temp_lh;
    fail e
  in
  let abort_frozen e =
    Kernel.unfreeze_lh kernel lh;
    abort_reserved e
  in
  let abort_extracted state e =
    if Kernel.running kernel then begin
      ignore (Kernel.install_lh kernel state);
      Kernel.unfreeze_lh kernel lh
    end;
    fail e
  in
  match reserved with
  | Error e -> fail e
  | Ok () ->
  (* The reservation reply taught the binding cache where the
     destination is; bind the temporary id there too so transfer steps
     skip the Where_is round. *)
  (match Kernel.lookup_binding kernel dest.Scheduler.s_pm.Ids.lh with
  | Some st -> Kernel.set_binding kernel temp_lh st
  | None -> ());
  (* Step 3: the copy phase, program still running, bounded by the
     transfer budget when one is declared. *)
  let copied =
    match plan with
    | Dirty ->
        let deadline =
          Option.map
            (fun b -> Time.add (Engine.now eng) b.Config.bg_transfer)
            budget
        in
        precopy kernel cfg ~deadline ~self ~temp_lh ~lh
    | Whole | Nothing -> Ok []
  in
  match copied with
  | Error e -> abort_reserved e
  | Ok rounds ->
  let ks_span = kernel_state_span lh in
  (* Pre-freeze gate: if the residue the freeze window must move is
     already predicted (at the last round's rate) to blow the freeze
     budget, abort before freezing at all. *)
  let frozen_doomed =
    match budget with
    | None -> false
    | Some b ->
        let wire_est =
          match List.rev rounds with
          | last :: _ -> estimated_span last (plan_bytes plan lh)
          | [] -> Time.zero
        in
        Time.(
          Time.add (Time.add wire_est ks_span) install_margin
          > b.Config.bg_freeze)
  in
  if frozen_doomed then
    abort_reserved
      (Budget_exceeded "estimated freeze window exceeds the budget")
  else
  (* Step 4: freeze and complete the copy — the residue, then the
     kernel-server and program-manager state. *)
  let freeze_start = Engine.now eng in
  Kernel.freeze_lh kernel lh;
  let freeze_deadline =
    Option.map (fun b -> Time.add freeze_start b.Config.bg_freeze) budget
  in
  let m = manifest kernel plan lh in
  let final_bytes = plan_bytes plan lh in
  if plan = Dirty then ignore (Logical_host.clear_dirty lh);
  Kernel.emit kernel (fun () ->
      Mig_frozen_residue { lh = lh_id; bytes = final_bytes });
  match
    ship kernel ~deadline:freeze_deadline ~self ~temp_lh ~lh_id
      ~label:"residue" m ~bytes:final_bytes
  with
  | Error (Budget_exceeded _) ->
      abort_frozen (Budget_exceeded "freeze budget exhausted mid-residue")
  | Error e -> abort_frozen e
  | Ok () ->
  Proc.sleep eng ks_span;
  match freeze_deadline with
  | Some dl when Time.(Engine.now eng > dl) ->
      abort_frozen
        (Budget_exceeded "freeze budget exhausted copying kernel state")
  | Some _ | None ->
  (* Step 5: transfer control — extract here, install there — and
     rebind. The destination refuses installs arriving after the freeze
     deadline, so a committed migration is guaranteed to have resumed
     within budget. Under copy-on-reference the memory image stays here
     and this kernel server answers the new copy's page faults. *)
  let page_source =
    match strategy with
    | Protocol.Copy_on_reference ->
        Some (Ids.kernel_server_of (Logical_host.id (Kernel.host_lh kernel)))
    | Protocol.Precopy | Protocol.Freeze_and_copy | Protocol.Vm_flush _ -> None
  in
  let state = Kernel.extract_lh ?page_source kernel lh in
  let installed =
    match
      Kernel.send
        ?deadline:(Option.map (fun dl -> Time.add dl ack_slack) freeze_deadline)
        kernel ~src:self
        ~dst:(Ids.kernel_server_of temp_lh)
        (Message.make (Kernel.Ks_install { state; deadline = freeze_deadline }))
    with
    | Ok { Message.body = Kernel.Ks_installed { resumed_at }; _ } ->
        Ok resumed_at
    | Ok { Message.body = Kernel.Ks_refused m; _ } -> Error (Refused m)
    | Ok _ | Error _ -> Error (Transfer_failed "no acknowledgement of install")
  in
  match installed with
  | Error e -> abort_extracted state e
  | Ok resumed_at ->
  (* Demos/MP ablation: rebinding happens by leaving a forwarding
     address on this (old) host instead of the paper's stateless
     broadcast query. *)
  (match (Kernel.params kernel).Os_params.rebind with
  | Os_params.Forwarding -> (
      match Kernel.lookup_binding kernel temp_lh with
      | Some station -> Kernel.set_forward kernel lh_id station
      | None -> ())
  | Os_params.Broadcast_query -> ());
  (* The install made the destination's manager the record's owner. A
     record finished in flight leaves the installed copy nobody's. *)
  (match program.Progtable.p_status with
  | Progtable.Done _ ->
      ignore
        (Kernel.send kernel ~src:self ~dst:(Ids.kernel_server_of lh_id)
           (Message.make (Kernel.Ks_destroy_lh lh_id)))
  | Progtable.Running | Progtable.Migrating | Progtable.Suspended -> ());
  (* Bytes expected to cross the wire again after the program resumes:
     the whole image under copy-on-reference; under VM-flush the
     rewritten hot set plus the frozen residue, faulted back in from the
     page server. *)
  let faultin_bytes =
    match strategy with
    | Protocol.Copy_on_reference -> Logical_host.total_bytes lh
    | Protocol.Vm_flush _ ->
        let model = Dirty_model.params program.Progtable.p_model in
        int_of_float (1024. *. model.Dirty_model.hot_kb) + final_bytes
    | Protocol.Precopy | Protocol.Freeze_and_copy -> 0
  in
  finish_with
    (Ok
       {
         Protocol.m_prog = program.Progtable.p_spec.Programs.prog_name;
         m_from = my_host;
         m_dest = dest.Scheduler.s_host;
         m_strategy = Protocol.strategy_name strategy;
         m_rounds = rounds;
         m_final_bytes = final_bytes;
         m_freeze_start = freeze_start;
         m_resumed_at = resumed_at;
         m_kernel_state = ks_span;
         m_total = Time.sub (Engine.now eng) t_start;
         m_faultin_bytes = faultin_bytes;
       })

let migrate ?health ~kernel ~cfg ~self ~program ?dest ~strategy () =
  if program.Progtable.p_status <> Progtable.Running then
    (* A suspended program stays where its owner parked it: migration
       would unfreeze it at the destination. Mid-migration and finished
       programs are equally off the table. *)
    Error (Refused "program is not running")
  else
  (* Retries re-run selection — excluding every destination that already
     failed, so a crashed (but still advertised) host is never picked
     twice — and only apply when the destination is ours to choose; the
     paper's implementation uses zero retries. A budget abort (only
     possible when [cfg.budgeted]) reselects once, on its own counter
     [m]: the copy was too slow for this destination, so try a fresh one
     rather than stretch the window. *)
  let rec loop n m failed =
    let exclude_tried tried = match tried with Some h -> h :: failed | None -> failed in
    match
      attempt ?health ~kernel ~cfg ~self ~program ?dest ~exclude:failed
        ~strategy ()
    with
    | Error ((Transfer_failed _ as e), tried) ->
        if dest = None && n < cfg.Config.migration_retries then
          loop (n + 1) m (exclude_tried tried)
        else Error e
    | Error ((Budget_exceeded _ as e), tried) ->
        if dest = None && m < 1 then
          loop n (m + 1) (exclude_tried tried)
        else Error e
    | Error (e, _) -> Error e
    | Ok r -> Ok r
  in
  loop 0 0 []
