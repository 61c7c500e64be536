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
  | Mig_unmanaged of { lh : Ids.lh_id; dest : string }

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
    | Mig_unmanaged { lh; dest } ->
        Tracer.view_as "migrate" "unmanaged"
          [ ("lh", Tracer.Int lh); ("dest", Str dest) ]
    | _ -> None)

let kernel_state_span (cfg : Config.t) lh =
  let objects =
    Logical_host.process_count lh + List.length (Logical_host.spaces lh)
  in
  Time.add cfg.Config.kernel_state_base
    (Time.mul cfg.Config.kernel_state_per_object objects)

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

(* {2 Content-addressed manifests}

   With content caching on (Os_params.content_cache_bytes > 0), every
   copy step names its chunks first — a (digest, bytes) manifest built
   from the pages it is about to move — and ships only what the
   destination's cache is missing (DESIGN.md §4k). Manifests are built
   per transfer: full image, dirty residue of a pre-copy round, or the
   frozen residue. *)

let dirty_manifest lh =
  let spaces = Logical_host.spaces lh in
  let n =
    List.fold_left (fun a sp -> a + Address_space.dirty_count sp) 0 spaces
  in
  let m = Array.make n (0, 0) in
  let i = ref 0 in
  List.iter
    (fun sp ->
      let pb = Address_space.page_bytes sp in
      Address_space.iter_dirty sp (fun p ->
          m.(!i) <- (Address_space.page_digest sp p, pb);
          incr i))
    spaces;
  m

let full_manifest lh =
  let spaces = Logical_host.spaces lh in
  let n = List.fold_left (fun a sp -> a + Address_space.pages sp) 0 spaces in
  let m = Array.make n (0, 0) in
  let i = ref 0 in
  List.iter
    (fun sp ->
      let pb = Address_space.page_bytes sp in
      for p = 0 to Address_space.pages sp - 1 do
        m.(!i) <- (Address_space.page_digest sp p, pb);
        incr i
      done)
    spaces;
  m

(* 8 wire bytes per manifest entry (a 48-bit digest plus framing). The
   manifest rides the request message up to the 1 KB segment limit;
   anything beyond that is charged as bulk data ahead of the send. *)
let manifest_entry_bytes = 8

(* Exchange a manifest with the destination's kernel server and return
   how many bytes it still needs. The source also remembers every chunk
   it offered — it holds that content, so a later migrate-back (or any
   transfer of shared content toward this host) can skip the bytes. *)
let manifest_exchange kernel ~deadline ~self ~temp_lh ~lh_id ~label m =
  let cache = Kernel.content_cache kernel in
  let total = ref 0 in
  Array.iter
    (fun (dg, b) ->
      total := !total + b;
      Content_cache.insert cache ~digest:dg ~bytes:b)
    m;
  let wire = manifest_entry_bytes * Array.length m in
  let msg_bytes = min Message.max_bytes (Message.short_bytes + wire) in
  let overflow = wire - (msg_bytes - Message.short_bytes) in
  Kernel.add kernel Kernel.Xfer_manifest_bytes (Message.short_bytes + wire);
  match
    if overflow > 0 then
      bounded_transfer kernel ~deadline ~temp_lh ~bytes:overflow
    else Ok ()
  with
  | Error e -> Error e
  | Ok () -> (
      match
        Kernel.send ?deadline kernel ~src:self
          ~dst:(Ids.kernel_server_of temp_lh)
          (Message.make ~bytes:msg_bytes
             (Kernel.Ks_xfer_manifest { lh = lh_id; label; digests = m }))
      with
      | Ok { Message.body = Kernel.Ks_xfer_need { missing = _; bytes }; _ } ->
          Kernel.add kernel Kernel.Xfer_bytes_shipped bytes;
          Kernel.add kernel Kernel.Xfer_bytes_saved (!total - bytes);
          Ok bytes
      | Ok _ -> Error (Transfer_failed "unexpected manifest reply")
      | Error e ->
          Error (Transfer_failed (Format.asprintf "%a" Kernel.pp_send_error e)))

(* One acknowledged copy step: move the bytes on the wire, then confirm
   the destination is still alive with a kernel-server ping through the
   temporary logical-host id. The ping's failure is how we detect a dead
   destination (Section 3.1.3's "copy operation fails due to lack of
   acknowledgement"). With a manifest, only the chunks the destination
   reports missing cross the wire. *)
let acked_copy ?manifest kernel ~deadline ~self ~temp_lh ~bytes =
  let need =
    match manifest with
    | Some (label, lh_id, m) when Array.length m > 0 ->
        manifest_exchange kernel ~deadline ~self ~temp_lh ~lh_id ~label m
    | Some _ | None -> Ok bytes
  in
  match need with
  | Error e -> Error e
  | Ok need -> (
      match bounded_transfer kernel ~deadline ~temp_lh ~bytes:need with
      | Error e -> Error e
      | Ok () -> (
          match
            Kernel.send kernel ~src:self
              ~dst:(Ids.kernel_server_of temp_lh)
              (Message.make Kernel.Ks_ping)
          with
          | Ok { Message.body = Kernel.Ks_pong; _ } -> Ok ()
          | Ok _ -> Error (Transfer_failed "unexpected ping reply")
          | Error e ->
              Error
                (Transfer_failed (Format.asprintf "%a" Kernel.pp_send_error e))))

(* Observed copy rate, µs per byte, from the most recent round — the
   basis for the predictive budget checks. *)
let rate_of_rounds rounds =
  match List.rev rounds with
  | { Protocol.r_bytes; r_span } :: _ when r_bytes > 0 ->
      Some (float_of_int (Time.to_us r_span) /. float_of_int r_bytes)
  | _ -> None

let estimated_span ~rate bytes =
  match rate with
  | Some us_per_byte ->
      Time.of_us (int_of_float (ceil (us_per_byte *. float_of_int bytes)))
  | None -> Time.zero

(* Pre-copy rounds after the initial full copy. [last_residue] is what
   the previous round had to copy; stop when the residue is small, stops
   shrinking, or the round budget is exhausted (Section 3.1.2). Under a
   transfer deadline, a round predicted (from the previous round's
   observed rate) to blow it aborts the copy phase up front. *)
let rec precopy_rounds kernel (cfg : Config.t) ~deadline ~self ~temp_lh ~lh ~k
    ~last_residue acc =
  let eng = Kernel.engine kernel in
  let residue = Logical_host.dirty_bytes lh in
  let stop =
    residue <= cfg.Config.precopy_min_residue
    || k >= cfg.Config.precopy_max_rounds
    || float_of_int residue
       >= cfg.Config.precopy_improvement *. float_of_int last_residue
  in
  if stop then Ok (List.rev acc)
  else
    let doomed =
      match deadline with
      | None -> false
      | Some dl ->
          let est = estimated_span ~rate:(rate_of_rounds acc) residue in
          Time.(Time.add (Engine.now eng) est > dl)
    in
    if doomed then
      Error (Budget_exceeded "next pre-copy round would blow the transfer budget")
    else begin
      let t0 = Engine.now eng in
      (* The manifest must snapshot the dirty pages before the round
         clears their bits. *)
      let manifest =
        if Kernel.content_caching kernel then
          Some ("round", Logical_host.id lh, dirty_manifest lh)
        else None
      in
      ignore (Logical_host.clear_dirty lh);
      match acked_copy ?manifest kernel ~deadline ~self ~temp_lh ~bytes:residue with
      | Error e -> Error e
      | Ok () ->
          let round =
            { Protocol.r_bytes = residue; r_span = Time.sub (Engine.now eng) t0 }
          in
          Kernel.emit kernel (fun () ->
              Mig_round
                {
                  lh = Logical_host.id lh;
                  round = k + 1;
                  bytes = residue;
                  span = round.Protocol.r_span;
                });
          precopy_rounds kernel cfg ~deadline ~self ~temp_lh ~lh ~k:(k + 1)
            ~last_residue:residue (round :: acc)
    end

(* The pluggable part of the five-step protocol. Every strategy shares
   host selection, reservation, freeze, kernel-state copy, extract /
   install and rebind; a strategy decides only (a) what moves while the
   program still runs, (b) what must move inside the freeze window, (c)
   whether the source keeps the memory image and serves page faults
   after commit, and (d) how many bytes are expected to cross the wire
   again after the program resumes. *)
module Strategy = struct
  type nonrec t = {
    s_copy_phase :
      Kernel.t ->
      Config.t ->
      deadline:Time.t option ->
      self:Ids.pid ->
      temp_lh:Ids.lh_id ->
      lh:Logical_host.t ->
      (Protocol.round list, error) result;
        (* Step 3, program still running; [deadline] is the absolute
           transfer-budget bound. *)
    s_frozen_residue : Logical_host.t -> int;
        (* Step 4: bytes that must cross the wire while frozen.
           Destructive (clears dirty state) — call only once, frozen. *)
    s_frozen_manifest : Logical_host.t -> (int * int) array;
        (* Content manifest of exactly the pages [s_frozen_residue]
           will move. Non-destructive; must be called first (it reads
           the dirty bits the residue call clears). Only consulted when
           content caching is on. *)
    s_residue_estimate : Logical_host.t -> int;
        (* Non-destructive preview of [s_frozen_residue], for the
           pre-freeze budget gate. *)
    s_page_source : Kernel.t -> Ids.pid option;
        (* Step 5: pid the destination faults pages from, if the memory
           image stays behind (copy-on-reference). *)
    s_faultin : Progtable.program -> lh:Logical_host.t -> final_bytes:int -> int;
        (* Bytes expected to move again after commit. *)
  }

  (* Initial copy of the complete address spaces — code and initialized
     data move while the program keeps running — then dirty-residue
     rounds until they stop paying off (Section 3.1.2). *)
  let full_copy_then_rounds kernel cfg ~deadline ~self ~temp_lh ~lh =
    let eng = Kernel.engine kernel in
    let total = Logical_host.total_bytes lh in
    let t0 = Engine.now eng in
    let manifest =
      if Kernel.content_caching kernel then
        Some ("full", Logical_host.id lh, full_manifest lh)
      else None
    in
    ignore (Logical_host.clear_dirty lh);
    match acked_copy ?manifest kernel ~deadline ~self ~temp_lh ~bytes:total with
    | Error e -> Error e
    | Ok () ->
        let first =
          { Protocol.r_bytes = total; r_span = Time.sub (Engine.now eng) t0 }
        in
        Kernel.emit kernel (fun () ->
            Mig_round
              {
                lh = Logical_host.id lh;
                round = 1;
                bytes = total;
                span = first.Protocol.r_span;
              });
        precopy_rounds kernel cfg ~deadline ~self ~temp_lh ~lh ~k:1
          ~last_residue:total [ first ]

  let no_copy_phase _kernel _cfg ~deadline:_ ~self:_ ~temp_lh:_ ~lh:_ = Ok []
  let no_page_source _kernel = None
  let no_faultin _program ~lh:_ ~final_bytes:_ = 0

  let pre_copy =
    {
      s_copy_phase = full_copy_then_rounds;
      s_frozen_residue = (fun lh -> Logical_host.clear_dirty lh);
      s_frozen_manifest = dirty_manifest;
      s_residue_estimate = Logical_host.dirty_bytes;
      s_page_source = no_page_source;
      s_faultin = no_faultin;
    }

  (* The "simplest approach" of Section 3.1: no copying while running,
     so the whole image crosses the wire inside the freeze window. *)
  let freeze_and_copy =
    {
      s_copy_phase = no_copy_phase;
      s_frozen_residue = Logical_host.total_bytes;
      s_frozen_manifest = full_manifest;
      s_residue_estimate = Logical_host.total_bytes;
      s_page_source = no_page_source;
      s_faultin = no_faultin;
    }

  (* Accent/Demos-style: only kernel state moves at migration time. The
     freeze window is minimal, but the source keeps the memory image —
     its kernel server answers the new copy's page faults until every
     page has been referenced, the residual dependency of Section 3.2. *)
  let copy_on_reference =
    {
      s_copy_phase = no_copy_phase;
      s_frozen_residue = (fun _ -> 0);
      s_frozen_manifest = (fun _ -> [||]);
      s_residue_estimate = (fun _ -> 0);
      s_page_source =
        (fun kernel ->
          Some (Ids.kernel_server_of (Logical_host.id (Kernel.host_lh kernel))));
      s_faultin = (fun _program ~lh ~final_bytes:_ -> Logical_host.total_bytes lh);
    }

  (* VM-flush (Section 3.2): wire timing of the copy phase is identical
     to pre-copy — the bytes flow to the page server instead of the new
     host — and dirty-then-referenced pages cross the wire twice: the
     rewritten hot set plus the frozen residue fault back in later. The
     page server's pid does not change the timing. *)
  let vm_flush =
    {
      s_copy_phase = full_copy_then_rounds;
      s_frozen_residue = (fun lh -> Logical_host.clear_dirty lh);
      s_frozen_manifest = dirty_manifest;
      s_residue_estimate = Logical_host.dirty_bytes;
      s_page_source = no_page_source;
      s_faultin =
        (fun program ~lh:_ ~final_bytes ->
          let hot =
            int_of_float
              (1024.
              *. (Dirty_model.params program.Progtable.p_model)
                   .Dirty_model.hot_kb)
          in
          hot + final_bytes);
    }

  let of_protocol = function
    | Protocol.Precopy -> pre_copy
    | Protocol.Freeze_and_copy -> freeze_and_copy
    | Protocol.Copy_on_reference -> copy_on_reference
    | Protocol.Vm_flush _ -> vm_flush
end

let cancel_reservation_best_effort kernel ~self ~pm ~temp_lh =
  ignore
    (Kernel.send kernel ~src:self ~dst:pm
       (Message.make (Protocol.Pm_cancel_reserve { temp_lh })))

(* The per-strategy deadline budget when [cfg.budgeted], sized for the
   paper's calibration: the freeze bound comfortably covers kernel-state
   copy plus a small residue at the 3 s/MB bulk rate, and the transfer
   bound caps the whole running copy phase. Freeze-and-copy moves the
   entire image frozen, so its freeze budget is the transfer-scale one. *)
let budget_for (cfg : Config.t) strategy =
  if not cfg.Config.budgeted then None
  else
    let freeze =
      match strategy with
      | Protocol.Freeze_and_copy -> Time.of_sec 30.
      | Protocol.Precopy | Protocol.Copy_on_reference | Protocol.Vm_flush _ ->
          Time.of_ms 600.
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
let attempt ?health ~kernel ~cfg ~table ~self ~program ?dest ~exclude ~strategy
    () =
  let strat = Strategy.of_protocol strategy in
  let eng = Kernel.engine kernel in
  let lh = program.Progtable.p_lh in
  let lh_id = Logical_host.id lh in
  let my_host = Kernel.host_name kernel in
  let t_start = Engine.now eng in
  let budget = budget_for cfg strategy in
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
                freeze = Time.sub o.Protocol.m_resumed_at o.Protocol.m_freeze_start;
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
             ~exclude:(my_host :: exclude) kernel cfg
             ~group:Ids.program_manager_group ~self
             ~bytes:(Logical_host.total_bytes lh))
  in
  match dest with
  | Error e -> finish_with (Error (e, None))
  | Ok dest -> (
      Kernel.emit kernel (fun () ->
          Mig_dest { lh = lh_id; dest = dest.Scheduler.s_host });
      (* Step 2: initialize the new host under a temporary id. *)
      let temp_lh = Ids.Lh_allocator.fresh (Kernel.allocator kernel) in
      let reserve =
        Kernel.send kernel ~src:self ~dst:dest.Scheduler.s_pm
          (Message.make
             (Protocol.Pm_reserve
                { temp_lh; lh = lh_id; bytes = Logical_host.total_bytes lh }))
      in
      match reserve with
      | Ok { Message.body = Protocol.Pm_reserved; _ } -> (
          (* The reservation reply taught the binding cache where the
             destination is; bind the temporary id there too so transfer
             steps skip the Where_is round. *)
          (match Kernel.lookup_binding kernel dest.Scheduler.s_pm.Ids.lh with
          | Some st -> Kernel.set_binding kernel temp_lh st
          | None -> ());
          (* Step 3: the strategy's copy phase, program still running,
             bounded by the transfer budget when one is declared. *)
          let transfer_deadline =
            Option.map
              (fun b -> Time.add (Engine.now eng) b.Config.bg_transfer)
              budget
          in
          match
            strat.Strategy.s_copy_phase kernel cfg ~deadline:transfer_deadline
              ~self ~temp_lh ~lh
          with
          | Error e ->
              (* Nothing was frozen yet; just drop the reservation. *)
              cancel_reservation_best_effort kernel ~self
                ~pm:dest.Scheduler.s_pm ~temp_lh;
              finish_with (Error (e, Some dest.Scheduler.s_host))
          | Ok rounds -> (
              let ks_span = kernel_state_span cfg lh in
              (* Pre-freeze gate: if the residue the freeze window must
                 move is already predicted (at the observed copy rate) to
                 blow the freeze budget, abort before freezing at all. *)
              let frozen_doomed =
                match budget with
                | None -> false
                | Some b ->
                    let wire_est =
                      estimated_span ~rate:(rate_of_rounds rounds)
                        (strat.Strategy.s_residue_estimate lh)
                    in
                    Time.(
                      Time.add (Time.add wire_est ks_span) install_margin
                      > b.Config.bg_freeze)
              in
              if frozen_doomed then begin
                cancel_reservation_best_effort kernel ~self
                  ~pm:dest.Scheduler.s_pm ~temp_lh;
                finish_with
                  (Error
                     ( Budget_exceeded
                         "estimated freeze window exceeds the budget",
                       Some dest.Scheduler.s_host ))
              end
              else begin
              (* Step 4: freeze and complete the copy. *)
              let freeze_start = Engine.now eng in
              Kernel.freeze_lh kernel lh;
              let freeze_deadline =
                Option.map
                  (fun b -> Time.add freeze_start b.Config.bg_freeze)
                  budget
              in
              (* Manifest before residue: the residue call clears the
                 dirty bits the manifest reads. *)
              let final_manifest =
                if Kernel.content_caching kernel then
                  Some (strat.Strategy.s_frozen_manifest lh)
                else None
              in
              let final_bytes = strat.Strategy.s_frozen_residue lh in
              Kernel.emit kernel (fun () ->
                  Mig_frozen_residue { lh = lh_id; bytes = final_bytes });
              let abort_frozen reason =
                (* Still resident, just frozen: thaw and give the memory
                   back to the destination's reservation machinery. *)
                Kernel.unfreeze_lh kernel lh;
                cancel_reservation_best_effort kernel ~self
                  ~pm:dest.Scheduler.s_pm ~temp_lh;
                finish_with
                  (Error (Budget_exceeded reason, Some dest.Scheduler.s_host))
              in
              match
                match final_manifest with
                | Some m when Array.length m > 0 -> (
                    match
                      manifest_exchange kernel ~deadline:freeze_deadline ~self
                        ~temp_lh ~lh_id ~label:"residue" m
                    with
                    | Error e -> Error e
                    | Ok need ->
                        bounded_transfer kernel ~deadline:freeze_deadline
                          ~temp_lh ~bytes:need)
                | Some _ | None ->
                    bounded_transfer kernel ~deadline:freeze_deadline ~temp_lh
                      ~bytes:final_bytes
              with
              | Error _ -> abort_frozen "freeze budget exhausted mid-residue"
              | Ok () -> (
              Proc.sleep eng ks_span;
              match freeze_deadline with
              | Some dl when Time.(Engine.now eng > dl) ->
                  abort_frozen "freeze budget exhausted copying kernel state"
              | Some _ | None -> (
              (* Step 5: transfer control — extract here, install there —
                 and rebind. The destination refuses installs arriving
                 after the freeze deadline, so a committed migration is
                 guaranteed to have resumed within budget. *)
              let state =
                Kernel.extract_lh
                  ?page_source:(strat.Strategy.s_page_source kernel)
                  kernel lh
              in
              let install =
                Kernel.send
                  ?deadline:
                    (Option.map (fun dl -> Time.add dl ack_slack) freeze_deadline)
                  kernel ~src:self
                  ~dst:(Ids.kernel_server_of temp_lh)
                  (Message.make
                     (Kernel.Ks_install { state; deadline = freeze_deadline }))
              in
              match install with
              | Ok { Message.body = Kernel.Ks_installed { resumed_at }; _ } ->
                  (* Demos/MP ablation: rebinding happens by leaving a
                     forwarding address on this (old) host instead of the
                     paper's stateless broadcast query. *)
                  (match (Kernel.params kernel).Os_params.rebind with
                  | Os_params.Forwarding -> (
                      match Kernel.lookup_binding kernel temp_lh with
                      | Some station -> Kernel.set_forward kernel lh_id station
                      | None -> ())
                  | Os_params.Broadcast_query -> ());
                  (* Program-manager state follows the program. *)
                  Progtable.remove table program;
                  (match
                     Kernel.send kernel ~src:self ~dst:dest.Scheduler.s_pm
                       (Message.make (Protocol.Pm_adopt program))
                   with
                  | Ok _ -> ()
                  | Error _ ->
                      Kernel.emit kernel (fun () ->
                          Mig_unmanaged
                            { lh = lh_id; dest = dest.Scheduler.s_host }));
                  finish_with
                    (Ok
                       {
                         Protocol.m_prog =
                           program.Progtable.p_spec.Programs.prog_name;
                         m_from = my_host;
                         m_dest = dest.Scheduler.s_host;
                         m_strategy = Protocol.strategy_name strategy;
                         m_rounds = rounds;
                         m_final_bytes = final_bytes;
                         m_freeze_start = freeze_start;
                         m_resumed_at = resumed_at;
                         m_kernel_state = ks_span;
                         m_total = Time.sub (Engine.now eng) t_start;
                         m_faultin_bytes =
                           strat.Strategy.s_faultin program ~lh ~final_bytes;
                       })
              | Ok { Message.body = Kernel.Ks_refused m; _ } ->
                  (* Destination reneged: resurrect the old copy. *)
                  ignore (Kernel.install_lh kernel state);
                  Kernel.unfreeze_lh kernel lh;
                  finish_with (Error (Refused m, Some dest.Scheduler.s_host))
              | Ok _ | Error _ ->
                  (* Destination unreachable: "we assume that the new
                     host failed and that the logical host has not been
                     transferred" — unfreeze the old copy. *)
                  ignore (Kernel.install_lh kernel state);
                  Kernel.unfreeze_lh kernel lh;
                  finish_with
                    (Error
                       ( Transfer_failed "no acknowledgement of install",
                         Some dest.Scheduler.s_host ))))
              end))
      | Ok { Message.body = Protocol.Pm_refused m; _ } ->
          finish_with (Error (Refused m, Some dest.Scheduler.s_host))
      | Ok _ ->
          finish_with
            (Error
               (Refused "malformed reservation reply", Some dest.Scheduler.s_host))
      | Error e ->
          finish_with
            (Error
               ( Transfer_failed (Format.asprintf "%a" Kernel.pp_send_error e),
                 Some dest.Scheduler.s_host )))

let migrate ?health ~kernel ~cfg ~table ~self ~program ?dest ~strategy () =
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
      attempt ?health ~kernel ~cfg ~table ~self ~program ?dest ~exclude:failed
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
