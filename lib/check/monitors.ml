(* Online invariant monitors: incremental automata over the typed trace
   stream. Each check is O(1)-ish per event (hash-table lookups), so the
   bundle can stay attached during full fuzz runs. *)

type violation = {
  vi_monitor : string;
  vi_at : Time.t;
  vi_seq : int;
  vi_detail : string;
  vi_window : Tracer.record list;
}

let window_capacity = 33 (* offending event + 32 predecessors *)
let max_violations = 16

type t = {
  window : Tracer.record option array;
  mutable w_next : int; (* next slot to overwrite *)
  mutable seen : int;
  mutable last_at : Time.t;
  mutable last_seq : int;
  (* conservation *)
  sent : (int * int, unit) Hashtbl.t; (* (seg, frame) *)
  delivered : (int * int * int, unit) Hashtbl.t; (* (seg, frame, addr) *)
  attached : (int * int, unit) Hashtbl.t; (* (seg, addr) *)
  (* freeze-window exclusion *)
  frozen : (int, string) Hashtbl.t; (* lh -> host that froze it *)
  (* pre-copy convergence *)
  rounds : (int, int) Hashtbl.t; (* lh -> previous round's bytes *)
  (* no residual dependencies *)
  banned : (int * string, unit) Hashtbl.t; (* (lh, old host) *)
  (* freeze-budget conformance *)
  budgets : (int, Time.span) Hashtbl.t; (* lh -> declared freeze budget *)
  (* content-transfer manifest accounting *)
  manifests : (string, int * string * int * int * int * bool) Hashtbl.t;
      (* host -> (lh, label, chunks, bytes, digest_sum, hit_seen) left to
         account for; chunks/bytes/digest_sum decrement as the hit/miss
         pair arrives and must hit exactly zero. *)
  (* events each monitor actually inspected, for coverage reports *)
  coverage : (string, int ref) Hashtbl.t;
  mutable vios : violation list; (* newest first *)
  mutable vio_count : int;
}

let monitor_names =
  [
    "clock"; "conservation"; "convergence"; "freeze"; "residual"; "budget";
    "dedup";
  ]

let violations t = List.rev t.vios
let dropped t = Stdlib.max 0 (t.vio_count - max_violations)
let events_seen t = t.seen
let ok t = t.vio_count = 0

let touch t name =
  match Hashtbl.find_opt t.coverage name with
  | Some r -> incr r
  | None -> Hashtbl.replace t.coverage name (ref 1)

let coverage t =
  List.map
    (fun name ->
      ( name,
        match Hashtbl.find_opt t.coverage name with
        | Some r -> !r
        | None -> 0 ))
    monitor_names

let capture_window t =
  (* Oldest first; the ring may not be full yet. *)
  let out = ref [] in
  for i = 0 to window_capacity - 1 do
    match t.window.((t.w_next + i) mod window_capacity) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  List.rev !out

let fail t monitor (r : Tracer.record) fmt =
  Format.kasprintf
    (fun detail ->
      t.vio_count <- t.vio_count + 1;
      if t.vio_count <= max_violations then
        t.vios <-
          {
            vi_monitor = monitor;
            vi_at = r.Tracer.at;
            vi_seq = r.Tracer.seq;
            vi_detail = detail;
            vi_window = capture_window t;
          }
          :: t.vios)
    fmt

let check_clock t (r : Tracer.record) =
  touch t "clock";
  if Time.(r.Tracer.at < t.last_at) then
    fail t "clock" r "time ran backwards: %s after %s"
      (Time.to_string r.Tracer.at)
      (Time.to_string t.last_at);
  if t.last_seq >= 0 && r.Tracer.seq <> t.last_seq + 1 then
    fail t "clock" r "sequence gap: %d after %d" r.Tracer.seq t.last_seq;
  t.last_at <- r.Tracer.at;
  t.last_seq <- r.Tracer.seq

let check_net t (r : Tracer.record) =
  match r.Tracer.ev with
  | Ethernet.Frame_sent { seg; frame; _ } ->
      touch t "conservation";
      Hashtbl.replace t.sent (seg, frame) ()
  | Ethernet.Frame_delivered { seg; frame; dst } ->
      touch t "conservation";
      let a = Addr.to_int dst in
      if not (Hashtbl.mem t.sent (seg, frame)) then
        fail t "conservation" r "frame %d delivered on seg %d but never sent"
          frame seg;
      if Hashtbl.mem t.delivered (seg, frame, a) then
        fail t "conservation" r
          "frame %d delivered twice to %s on seg %d" frame (Addr.to_string dst)
          seg
      else Hashtbl.replace t.delivered (seg, frame, a) ();
      if not (Hashtbl.mem t.attached (seg, a)) then
        fail t "conservation" r "frame %d delivered to detached station %s"
          frame (Addr.to_string dst)
  | Ethernet.Station_attached { seg; addr } ->
      touch t "conservation";
      Hashtbl.replace t.attached (seg, Addr.to_int addr) ()
  | Ethernet.Station_detached { seg; addr } ->
      touch t "conservation";
      Hashtbl.remove t.attached (seg, Addr.to_int addr)
  | _ -> ()

let check_freeze t (r : Tracer.record) =
  match r.Tracer.ev with
  | Logical_host.Lh_frozen { host; lh } ->
      touch t "freeze";
      Hashtbl.replace t.frozen lh host
  | Logical_host.Lh_unfrozen { lh; _ } ->
      touch t "freeze";
      Hashtbl.remove t.frozen lh
  | Cpu.Slice { owner; _ } -> (
      touch t "freeze";
      match Hashtbl.find_opt t.frozen owner with
      | Some host ->
          fail t "freeze" r "lh %d got a CPU slice while frozen on %s" owner
            host
      | None -> ())
  | _ -> ()

let check_convergence t (r : Tracer.record) =
  match r.Tracer.ev with
  | Migration.Mig_start { lh; _ } ->
      touch t "convergence";
      Hashtbl.remove t.rounds lh
  | Migration.Mig_round { lh; round; bytes; _ } ->
      touch t "convergence";
      (match Hashtbl.find_opt t.rounds lh with
      | Some prev when bytes > prev ->
          fail t "convergence" r
            "lh %d pre-copy round %d grew: %d bytes after %d" lh round bytes
            prev
      | _ -> ());
      Hashtbl.replace t.rounds lh bytes
  | _ -> ()

let residual t (r : Tracer.record) lh host what =
  touch t "residual";
  if Hashtbl.mem t.banned (lh, host) then
    fail t "residual" r
      "%s references lh %d on %s after it migrated away: %a" what lh host
      Tracer.pp_record r

let check_residual t (r : Tracer.record) =
  match r.Tracer.ev with
  | Migration.Mig_committed { lh; from_host; dest; _ } ->
      Hashtbl.replace t.banned (lh, from_host) ();
      Hashtbl.remove t.banned (lh, dest)
  | Kernel.Ipc_recv { host; dst; _ } -> residual t r dst.Ids.lh host "delivery"
  | Kernel.Ipc_forward { host; lh; _ } -> residual t r lh host "forwarding"
  | Kernel.Page_fault_service { host; lh; _ } ->
      (* Copy-on-reference by design: the old host still serves the
         departed program's pages — exactly the dependency this monitor
         exists to reject. *)
      residual t r lh host "page-fault service"
  | Logical_host.Lh_installed { host; lh; _ } ->
      (* A migration back installs a fresh copy — not a residue — and the
         install lands before [Mig_committed], so lift the ban here. *)
      Hashtbl.remove t.banned (lh, host)
  | Logical_host.Lh_frozen { host; lh } | Logical_host.Lh_unfrozen { host; lh }
  | Logical_host.Lh_destroyed { host; lh } ->
      residual t r lh host "lifecycle event"
  | Logical_host.Lh_extracted { host; lh; _ } ->
      residual t r lh host "lifecycle event"
  | _ -> ()

(* Freeze-budget conformance: [Mig_budget] declares the ceiling for one
   attempt; the [Mig_committed] that ends that attempt must report a
   freeze window within it. The declaration dies with its attempt
   ([Mig_start] of a retry re-declares, [Mig_aborted] withdraws), so a
   budgeted attempt that aborts and retries unbudgeted is not held to
   the stale ceiling. *)
let check_budget t (r : Tracer.record) =
  match r.Tracer.ev with
  | Migration.Mig_start { lh; _ } -> Hashtbl.remove t.budgets lh
  | Migration.Mig_budget { lh; freeze; _ } ->
      touch t "budget";
      Hashtbl.replace t.budgets lh freeze
  | Migration.Mig_aborted { lh; _ } -> Hashtbl.remove t.budgets lh
  | Migration.Mig_committed { lh; freeze; _ } -> (
      match Hashtbl.find_opt t.budgets lh with
      | Some declared ->
          touch t "budget";
          if Time.(freeze > declared) then
            fail t "budget" r
              "lh %d froze for %s, over its declared budget of %s" lh
              (Time.to_string freeze) (Time.to_string declared);
          Hashtbl.remove t.budgets lh
      | None -> ())
  | _ -> ()

(* Content-transfer conservation: every [Xfer_manifest] is followed by
   exactly one [Xfer_chunk_hit] and one [Xfer_chunk_miss] for the same
   host/lh/label, and the pair partitions the manifest — chunk counts,
   byte counts and digest sums must each split exactly. A cached chunk
   whose stored bytes differed from the source page, a dropped entry, or
   a double count all break one of the three sums. *)
let check_dedup t (r : Tracer.record) =
  let part t (r : Tracer.record) host lh label chunks bytes digest_sum ~last
      what =
    match Hashtbl.find_opt t.manifests host with
    | None ->
        fail t "dedup" r "%s on %s (lh %d, %s) without a pending manifest"
          what host lh label
    | Some (mlh, mlabel, mc, mb, ms, hit_seen) ->
        if mlh <> lh || mlabel <> label then
          fail t "dedup" r
            "%s on %s names lh %d/%s but the pending manifest is lh %d/%s"
            what host lh label mlh mlabel;
        if last <> hit_seen then
          fail t "dedup" r "%s on %s out of order in the manifest triple" what
            host;
        let mc = mc - chunks and mb = mb - bytes and ms = ms - digest_sum in
        if last then begin
          Hashtbl.remove t.manifests host;
          if mc <> 0 || mb <> 0 || ms <> 0 then
            fail t "dedup" r
              "manifest on %s (lh %d, %s) not conserved: %d chunks, %d \
               bytes, digest sum %d left unaccounted"
              host lh label mc mb ms
        end
        else Hashtbl.replace t.manifests host (mlh, mlabel, mc, mb, ms, true)
  in
  match r.Tracer.ev with
  | Kernel.Xfer_manifest { host; lh; label; chunks; bytes; digest_sum; _ } ->
      touch t "dedup";
      if Hashtbl.mem t.manifests host then
        fail t "dedup" r
          "manifest on %s (lh %d, %s) before the previous one's hit/miss \
           pair completed"
          host lh label;
      Hashtbl.replace t.manifests host
        (lh, label, chunks, bytes, digest_sum, false)
  | Kernel.Xfer_chunk_hit { host; lh; label; chunks; bytes; digest_sum } ->
      touch t "dedup";
      part t r host lh label chunks bytes digest_sum ~last:false "chunk-hit"
  | Kernel.Xfer_chunk_miss { host; lh; label; chunks; bytes; digest_sum } ->
      touch t "dedup";
      part t r host lh label chunks bytes digest_sum ~last:true "chunk-miss"
  | _ -> ()

let handle t (r : Tracer.record) =
  t.window.(t.w_next) <- Some r;
  t.w_next <- (t.w_next + 1) mod window_capacity;
  t.seen <- t.seen + 1;
  check_clock t r;
  check_net t r;
  check_freeze t r;
  check_convergence t r;
  check_residual t r;
  check_budget t r;
  check_dedup t r

let attach trc =
  let t =
    {
      window = Array.make window_capacity None;
      w_next = 0;
      seen = 0;
      last_at = Time.zero;
      last_seq = -1;
      sent = Hashtbl.create 1024;
      delivered = Hashtbl.create 1024;
      attached = Hashtbl.create 32;
      frozen = Hashtbl.create 8;
      rounds = Hashtbl.create 8;
      banned = Hashtbl.create 8;
      budgets = Hashtbl.create 8;
      manifests = Hashtbl.create 8;
      coverage = Hashtbl.create 8;
      vios = [];
      vio_count = 0;
    }
  in
  (* Catch up on what the ring retains (boot-time attaches and the
     like), then go live. *)
  List.iter (handle t) (Tracer.records trc);
  Tracer.on_event trc (handle t);
  t

let pp_violation ppf v =
  Format.fprintf ppf "@[<v>[%s] violation at %s (event #%d): %s@ window:@ %a@]"
    v.vi_monitor (Time.to_string v.vi_at) v.vi_seq v.vi_detail
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf r ->
         Format.fprintf ppf "  %a" Tracer.pp_record r))
    v.vi_window

let pp_report ppf t =
  if ok t then
    Format.fprintf ppf "all invariants held over %d events" t.seen
  else begin
    Format.fprintf ppf "@[<v>%d violation%s over %d events:@ %a@]" t.vio_count
      (if t.vio_count = 1 then "" else "s")
      t.seen
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_violation)
      (violations t);
    if dropped t > 0 then
      Format.fprintf ppf "@ (%d further violations not retained)" (dropped t)
  end
