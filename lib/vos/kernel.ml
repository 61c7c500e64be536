type send_error = No_response

let pp_send_error ppf No_response = Format.pp_print_string ppf "no-response"

(* Outstanding (kernel-driven) send state. Retransmission is kernel-level
   so it continues while the sending process' logical host is frozen
   (Section 3.1.3), and moves with the logical host when it migrates. *)
type osend = {
  os_txn : Packet.txn;
  os_src : Ids.pid;
  os_dst : Ids.pid;
  os_msg : Message.t;
  os_ivar : (Message.t, send_error) result Ivar.t;
  mutable os_done : bool;
  mutable os_local_delivered : bool;
  mutable os_attempts_since_heard : int;
  mutable os_last_heard : Time.t;
  mutable os_timer : Engine.handle option;
}

type lh_state = {
  st_lh : Logical_host.t;
  st_osends : osend list;
  st_page_source : Ids.pid option;
      (* Copy-on-reference: the source host's kernel server, still holding
         every page. The installing kernel evicts the spaces and faults
         pages back from this pid on first touch. *)
}

type collector = {
  c_txn : Packet.txn;
  c_mailbox : (Ids.pid * Message.t) Mailbox.t;
}

(* A migration destination's promise of memory for an incoming logical
   host. [r_expires] is pushed forward by every request addressed through
   the reserved id; if the source crashes mid-pre-copy the clock runs out
   and the memory is released (nothing in the paper's protocol tells the
   destination the source died — the TTL is the destination's own
   recovery). *)
type reservation = { r_bytes : int; mutable r_expires : Time.t }

(* The counter registry (documented in kernel.mli): every counter with
   its export name, in declaration order; [index] is its [counts] slot. *)
type counter =
  | Sends | Sends_failed | Group_sends | Retransmissions | Where_is
  | Reply_pending | Duplicates | Forwarded | Replies_discarded_frozen
  | Packets_rx | Ks_pings | Reservations_expired | Reboots | Page_faults
  | Page_fault_serves | Xfer_chunks_hit | Xfer_chunks_miss
  | Xfer_bytes_deduped | Xfer_bytes_shipped | Xfer_bytes_saved
  | Xfer_manifest_bytes | Img_announced_chunks | Img_chunks_hit
  | Img_chunks_miss

let registry =
  [| Sends, "sends"; Sends_failed, "sends_failed"; Group_sends, "group_sends";
     Retransmissions, "retransmissions"; Where_is, "where_is";
     Reply_pending, "reply_pending"; Duplicates, "duplicates"; Forwarded, "forwarded";
     Replies_discarded_frozen, "replies_discarded_frozen"; Packets_rx, "packets_rx";
     Ks_pings, "ks_pings"; Reservations_expired, "reservations_expired";
     Reboots, "reboots"; Page_faults, "page_faults";
     Page_fault_serves, "page_fault_serves"; Xfer_chunks_hit, "xfer_chunks_hit";
     Xfer_chunks_miss, "xfer_chunks_miss"; Xfer_bytes_deduped, "xfer_bytes_deduped";
     Xfer_bytes_shipped, "xfer_bytes_shipped"; Xfer_bytes_saved, "xfer_bytes_saved";
     Xfer_manifest_bytes, "xfer_manifest_bytes";
     Img_announced_chunks, "img_announced_chunks"; Img_chunks_hit, "img_chunks_hit";
     Img_chunks_miss, "img_chunks_miss" |]

let index = function
  | Sends -> 0 | Sends_failed -> 1 | Group_sends -> 2 | Retransmissions -> 3
  | Where_is -> 4 | Reply_pending -> 5 | Duplicates -> 6 | Forwarded -> 7
  | Replies_discarded_frozen -> 8 | Packets_rx -> 9 | Ks_pings -> 10
  | Reservations_expired -> 11 | Reboots -> 12 | Page_faults -> 13
  | Page_fault_serves -> 14 | Xfer_chunks_hit -> 15 | Xfer_chunks_miss -> 16
  | Xfer_bytes_deduped -> 17 | Xfer_bytes_shipped -> 18 | Xfer_bytes_saved -> 19
  | Xfer_manifest_bytes -> 20 | Img_announced_chunks -> 21
  | Img_chunks_hit -> 22 | Img_chunks_miss -> 23

let counters = Array.to_list (Array.map fst registry)
let counter_name c = snd registry.(index c)

(* Group memberships, keyed by group pid; only ever probed. *)
module Pid_table = Hashtbl.Make (struct
  type t = Ids.pid

  let equal = Ids.pid_equal
  let hash (p : Ids.pid) = (p.Ids.lh * 31) + p.Ids.index
end)

type t = {
  eng : Engine.t;
  krng : Rng.t;
  trc : Tracer.t;
  prm : Os_params.t;
  net : Packet.t Ethernet.t;
  mutable stn : Packet.t Ethernet.station option;
  self : Addr.t;
  name : string;
  alloc : Ids.Lh_allocator.t;
  mem_bytes : int;
  kcpu : Cpu.t;
  lh_table : Logical_host.t Int_table.Ordered.t;
      (* Hash order is the kill order at shutdown and the [on_residency]
         replay order; every by-id membership test reads [res_ids]. *)
  mutable res_ids : Ids.lh_id array;
  mutable res_lhs : Logical_host.t array;
      (* The hosts of [lh_table] in ascending id order, index for index
         with [res_ids]; the first [res_len] slots are live, the rest
         hold [the_host_lh]. *)
  mutable res_len : int;
  mutable res_guests : int;  (* residents at [Cpu.Background] *)
  mutable lh_bits : int;
      (* Bit [id land 31] for every resident or reserved id, and maybe
         for some that left: a clear bit proves an id is neither, so a
         [Where_is] for a host elsewhere costs one word test. *)
  mutable on_residency : Ids.lh_id -> resident:bool -> unit;
      (* Called on every change to [lh_table]. *)
  the_host_lh : Logical_host.t;
  sys_procs : Vproc.t Int_table.Ordered.t;
  bindings : Int_table.Flat.t;
      (* Logical-host id -> station number, a flat cache refreshed by
         every incoming packet; residents are never cached. *)
  outstanding : osend Int_table.Ordered.t;
  group_outstanding : (Ids.pid * Message.t) Mailbox.t Int_table.Direct.t;
  groups : Vproc.t list Pid_table.t;
  reservations : reservation Int_table.Direct.t;
  forwards : Addr.t Int_table.Direct.t;
      (* Demos/MP-ablation mode only: where a departed logical host went *)
  page_sources : unit Int_table.Direct.t;
      (* Copy-on-reference source side: departed logical hosts whose
         memory image stayed behind; this kernel answers their page
         faults — the residual dependency the paper warns about. *)
  fault_sources : Ids.pid Int_table.Direct.t;
      (* Copy-on-reference destination side: resident logical host ->
         the old host's kernel server that still holds its unreferenced
         pages. *)
  counts : int array;  (* by [index]; kept across shutdown/reboot *)
  cache : Content_cache.t;
      (* Per-host content cache for content-addressed transfer
         (DESIGN.md §4k). Budget 0 (the default) disables the whole
         machinery: no digests, no manifests, paper-exact byte counts. *)
}

type Message.body +=
  | Ks_ping
  | Ks_pong
  | Ks_install of { state : lh_state; deadline : Time.t option }
  | Ks_installed of { resumed_at : Time.t }
  | Ks_destroy_lh of Ids.lh_id
  | Ks_fault_pages of { lh : Ids.lh_id; pages : int; bytes : int }
  | Ks_xfer_manifest of {
      lh : Ids.lh_id;  (* the logical host whose pages are moving *)
      label : string;  (* which transfer: "full" / "round" / "residue" *)
      digests : int array;  (* content digest of each chunk *)
      chunk_bytes : int array;  (* its size, index for index *)
    }
      (* Manifest-first bulk copy: before shipping chunks, the source
         names them; the destination's kernel server probes its content
         cache and replies [Ks_xfer_need] so only missing bytes cross
         the wire. *)
  | Ks_xfer_need of { bytes : int }
  | Ks_content_announce of {
      image : string;
      first : int;
      count : int;
      chunk_bytes : int;
    }
      (* Multicast to {!Ids.content_group} (no reply): the named image's
         chunks [first, first+count) just crossed the shared wire, so
         every listening cache may count them as held. *)
  | Ks_ok
  | Ks_refused of string

(* Typed trace events. [host] is always the workstation emitting the
   event, so monitors can attribute IPC activity to a specific copy of a
   logical host (the no-residual-dependency check keys on exactly that). *)
type Tracer.event +=
  | Ipc_send of { host : string; txn : Packet.txn; src : Ids.pid; dst : Ids.pid }
  | Ipc_recv of { host : string; txn : Packet.txn; src : Ids.pid; dst : Ids.pid }
  | Ipc_reply of { host : string; txn : Packet.txn; src : Ids.pid; dst : Ids.pid }
  | Ipc_forward of {
      host : string;
      txn : Packet.txn;
      lh : Ids.lh_id;
      to_station : Addr.t;
    }
  | Binding_set of { host : string; lh : Ids.lh_id; station : Addr.t }
  | Binding_invalidated of { host : string; lh : Ids.lh_id }
  | Host_crashed of { host : string }
  | Host_rebooted of { host : string }
  | Page_fault_service of {
      host : string;  (* the OLD host, serving pages it kept *)
      lh : Ids.lh_id;  (* the departed logical host being served *)
      pages : int;
      bytes : int;
    }
  | Page_source_lost of { host : string; lh : Ids.lh_id }
  (* Content-addressed transfer. A manifest scan always emits the
     triple [Xfer_manifest; Xfer_chunk_hit; Xfer_chunk_miss] back to
     back (possibly with zero counts) at the probing host; the dedup
     monitor pairs them up and checks digest conservation. [digest_sum]
     fields are sums of 48-bit digests, safely below [max_int]. *)
  | Xfer_manifest of {
      host : string;  (* the host probing its cache *)
      lh : Ids.lh_id;
      label : string;
      chunks : int;
      bytes : int;  (* content bytes the manifest covers *)
      wire_bytes : int;  (* what the manifest itself cost on the wire *)
      digest_sum : int;
    }
  | Xfer_chunk_hit of {
      host : string;
      lh : Ids.lh_id;
      label : string;
      chunks : int;
      bytes : int;  (* bytes that need not cross the wire *)
      digest_sum : int;
    }
  | Xfer_chunk_miss of {
      host : string;
      lh : Ids.lh_id;
      label : string;
      chunks : int;
      bytes : int;  (* bytes the source must still ship *)
      digest_sum : int;
    }
  | Img_cache_hit of { host : string; image : string; chunks : int; bytes : int }
  | Img_cache_miss of { host : string; image : string; chunks : int; bytes : int }

let () =
  let pid p = Tracer.Str (Ids.pid_to_string p) in
  let ipc type_ host txn src dst =
    Tracer.view_as "ipc" type_
      [
        ("host", Tracer.Str host);
        ("txn", Int txn);
        ("src", pid src);
        ("dst", pid dst);
      ]
  in
  Tracer.register_view (function
    | Ipc_send { host; txn; src; dst } -> ipc "send" host txn src dst
    | Ipc_recv { host; txn; src; dst } -> ipc "recv" host txn src dst
    | Ipc_reply { host; txn; src; dst } -> ipc "reply" host txn src dst
    | Ipc_forward { host; txn; lh; to_station } ->
        Tracer.view_as "ipc" "forward"
          [
            ("host", Tracer.Str host);
            ("txn", Int txn);
            ("lh", Int lh);
            ("to", Str (Addr.to_string to_station));
          ]
    | Binding_set { host; lh; station } ->
        Tracer.view_as "bind" "set"
          [
            ("host", Tracer.Str host);
            ("lh", Int lh);
            ("station", Str (Addr.to_string station));
          ]
    | Binding_invalidated { host; lh } ->
        Tracer.view_as "bind" "invalidated"
          [ ("host", Tracer.Str host); ("lh", Int lh) ]
    | Host_crashed { host } ->
        Tracer.view_as "host" "crashed" [ ("host", Tracer.Str host) ]
    | Host_rebooted { host } ->
        Tracer.view_as "host" "rebooted" [ ("host", Tracer.Str host) ]
    | Page_fault_service { host; lh; pages; bytes } ->
        Tracer.view_as "migrate" "page-fault"
          [
            ("host", Tracer.Str host);
            ("lh", Int lh);
            ("pages", Int pages);
            ("bytes", Int bytes);
          ]
    | Page_source_lost { host; lh } ->
        Tracer.view_as "migrate" "page-source-lost"
          [ ("host", Tracer.Str host); ("lh", Int lh) ]
    | Xfer_manifest { host; lh; label; chunks; bytes; wire_bytes; digest_sum } ->
        Tracer.view_as "xfer" "manifest"
          [
            ("host", Tracer.Str host);
            ("lh", Int lh);
            ("label", Str label);
            ("chunks", Int chunks);
            ("bytes", Int bytes);
            ("wire", Int wire_bytes);
            ("sum", Int digest_sum);
          ]
    | Xfer_chunk_hit { host; lh; label; chunks; bytes; digest_sum } ->
        Tracer.view_as "xfer" "hit"
          [
            ("host", Tracer.Str host);
            ("lh", Int lh);
            ("label", Str label);
            ("chunks", Int chunks);
            ("bytes", Int bytes);
            ("sum", Int digest_sum);
          ]
    | Xfer_chunk_miss { host; lh; label; chunks; bytes; digest_sum } ->
        Tracer.view_as "xfer" "miss"
          [
            ("host", Tracer.Str host);
            ("lh", Int lh);
            ("label", Str label);
            ("chunks", Int chunks);
            ("bytes", Int bytes);
            ("sum", Int digest_sum);
          ]
    | Img_cache_hit { host; image; chunks; bytes } ->
        Tracer.view_as "img" "hit"
          [
            ("host", Tracer.Str host);
            ("image", Str image);
            ("chunks", Int chunks);
            ("bytes", Int bytes);
          ]
    | Img_cache_miss { host; image; chunks; bytes } ->
        Tracer.view_as "img" "miss"
          [
            ("host", Tracer.Str host);
            ("image", Str image);
            ("chunks", Int chunks);
            ("bytes", Int bytes);
          ]
    | _ -> None)

(* Domain-local transaction counter — see [Proc.reset_ids]: replica
   simulations on parallel domains must not share it, and resetting it
   per cluster keeps txn values (Hashtbl keys) identical across domain
   placements. *)
let txn_counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_txn_ids () = Domain.DLS.get txn_counter := 0

let fresh_txn () =
  let txn_counter = Domain.DLS.get txn_counter in
  incr txn_counter;
  !txn_counter

(* {2 Small helpers} *)

let engine t = t.eng
let params t = t.prm
let host_name t = t.name
let station t = t.self
let cpu t = t.kcpu
let allocator t = t.alloc
let host_lh t = t.the_host_lh
let memory_bytes t = t.mem_bytes

let count t c = t.counts.(index c)
let add t c n = t.counts.(index c) <- count t c + n
let bump t c = add t c 1

let content_cache t = t.cache
let content_caching t = Content_cache.enabled t.cache

let stat t name =
  match Array.find_opt (fun (_, n) -> String.equal n name) registry with
  | Some (c, _) -> count t c
  | None -> invalid_arg ("Kernel.stat: unknown counter " ^ name)

(* Typed-event helper: the thunk defers allocation to the enabled case,
   keeping the IPC fast path allocation-free under disabled tracing. *)
let emit t mk = if Tracer.enabled t.trc then Tracer.emit t.trc (mk ())

(* The first slot of [ids] in [lo, hi) not below [id], or [hi]. A
   top-level function, so a probe builds no closure. *)
let rec lower_bound (ids : int array) id lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if Array.unsafe_get ids mid < id then lower_bound ids id (mid + 1) hi
    else lower_bound ids id lo mid

let res_index t id = lower_bound t.res_ids id 0 t.res_len
let lh_bit id = 1 lsl (id land 31)

let is_resident t id =
  t.lh_bits land lh_bit id <> 0
  &&
  let i = res_index t id in
  i < t.res_len && Array.unsafe_get t.res_ids i = id

(* Drop the bits of ids that are no longer resident or reserved. *)
let recompute_lh_bits t =
  let bits = ref 0 in
  for i = 0 to t.res_len - 1 do
    bits := !bits lor lh_bit (Array.unsafe_get t.res_ids i)
  done;
  if Int_table.Direct.length t.reservations > 0 then
    bits := Int_table.Direct.fold (fun id _ b -> b lor lh_bit id) t.reservations !bits;
  t.lh_bits <- !bits

let guest_weight lh = if Logical_host.priority lh = Cpu.Background then 1 else 0

let memory_free t =
  let resident = ref 0 in
  for i = 0 to t.res_len - 1 do
    resident := !resident + Logical_host.total_bytes (Array.unsafe_get t.res_lhs i)
  done;
  let reserved =
    if Int_table.Direct.length t.reservations = 0 then 0
    else Int_table.Direct.fold (fun _ r acc -> acc + r.r_bytes) t.reservations 0
  in
  t.mem_bytes - !resident - reserved

let reservation_count t = Int_table.Direct.length t.reservations
let forward_count t = Int_table.Direct.length t.forwards

let logical_hosts t =
  let acc = ref [] in
  for i = t.res_len - 1 downto 0 do
    acc := t.res_lhs.(i) :: !acc
  done;
  !acc

let fold_resident f t init =
  let acc = ref init in
  for i = t.res_len - 1 downto 0 do
    acc := f t.res_ids.(i) !acc
  done;
  !acc

let find_lh t id = Int_table.Ordered.find_opt t.lh_table id

(* Every residency change goes through these two, so [on_residency]
   sees the table's exact history and the id-sorted arrays mirror the
   table. Each allocates only when the arrays double. *)
let make_resident t id lh =
  Int_table.Ordered.replace t.lh_table id lh;
  t.lh_bits <- t.lh_bits lor lh_bit id;
  let i = res_index t id in
  if i < t.res_len && t.res_ids.(i) = id then begin
    t.res_guests <- t.res_guests - guest_weight t.res_lhs.(i) + guest_weight lh;
    t.res_lhs.(i) <- lh
  end
  else begin
    let cap = Array.length t.res_ids in
    if t.res_len = cap then begin
      let ids = Array.make (2 * cap) 0 and lhs = Array.make (2 * cap) t.the_host_lh in
      Array.blit t.res_ids 0 ids 0 cap;
      Array.blit t.res_lhs 0 lhs 0 cap;
      t.res_ids <- ids;
      t.res_lhs <- lhs
    end;
    let tail = t.res_len - i in
    Array.blit t.res_ids i t.res_ids (i + 1) tail;
    Array.blit t.res_lhs i t.res_lhs (i + 1) tail;
    t.res_ids.(i) <- id;
    t.res_lhs.(i) <- lh;
    t.res_len <- t.res_len + 1;
    t.res_guests <- t.res_guests + guest_weight lh
  end;
  t.on_residency id ~resident:true

let evict_resident t id =
  Int_table.Ordered.remove t.lh_table id;
  let i = res_index t id in
  if i < t.res_len && t.res_ids.(i) = id then begin
    t.res_guests <- t.res_guests - guest_weight t.res_lhs.(i);
    let last = t.res_len - 1 in
    Array.blit t.res_ids (i + 1) t.res_ids i (last - i);
    Array.blit t.res_lhs (i + 1) t.res_lhs i (last - i);
    t.res_lhs.(last) <- t.the_host_lh;
    t.res_len <- last;
    recompute_lh_bits t
  end;
  t.on_residency id ~resident:false

let on_residency t f =
  t.on_residency <- f;
  Int_table.Ordered.iter (fun id _ -> f id ~resident:true) t.lh_table

let guest_count t = t.res_guests

(* The cached station's number, or -1: the hot paths test it without
   building an option. *)
let binding t lh = Int_table.Flat.find t.bindings lh

let lookup_binding t lh =
  let s = binding t lh in
  if s < 0 then None else Some (Addr.of_int s)

(* Trace only actual changes: cache refreshes from traffic re-set the
   same station on nearly every packet. *)
let set_binding t lh addr =
  let station = Addr.to_int addr in
  if Int_table.Flat.replace t.bindings lh station <> station then
    emit t (fun () -> Binding_set { host = t.name; lh; station = addr })

let invalidate_binding t lh =
  if Int_table.Flat.remove t.bindings lh then
    emit t (fun () -> Binding_invalidated { host = t.name; lh })
let set_forward t lh addr = Int_table.Direct.replace t.forwards lh addr

(* Cache refresh from traffic: every packet tells us where its sender's
   logical host lives (Section 3.1.4: "the cache is also updated based on
   incoming requests"). Resident hosts are authoritative, never cached. *)
let update_binding_from t (pid : Ids.pid) src_station =
  if
    pid.Ids.lh < 0x7FFF0000 && not (is_resident t pid.Ids.lh)
  then
    set_binding t pid.Ids.lh src_station

let transmit t ~dst pkt =
  match t.stn with
  | None -> () (* shut down: the wire is gone *)
  | Some _ ->
      Ethernet.send t.net
        (Frame.unicast ~src:t.self ~dst ~bytes:(Packet.bytes pkt) pkt)

let transmit_broadcast t pkt =
  match t.stn with
  | None -> ()
  | Some _ ->
      Ethernet.send t.net
        (Frame.broadcast ~src:t.self ~bytes:(Packet.bytes pkt) pkt)

let multicast_group_id (g : Ids.pid) = (g.Ids.lh * 31) + g.Ids.index

let transmit_multicast t ~group pkt =
  match t.stn with
  | None -> ()
  | Some _ ->
      Ethernet.send t.net
        (Frame.multicast ~src:t.self
           ~group:(multicast_group_id group)
           ~bytes:(Packet.bytes pkt) pkt)

(* {2 Local delivery} *)

let is_group_pid (p : Ids.pid) = p.Ids.lh >= 0x7FFF0000

let lh_hosting_or_reserved t id =
  t.lh_bits land lh_bit id <> 0
  && (is_resident t id || Int_table.Direct.mem t.reservations id)

(* The logical host whose transaction table tracks a request addressed to
   [dst]. Requests to reserved-but-uninstalled hosts (migration's state
   install) are tracked by the host logical host; so are leftovers of
   local-group-addressed requests whose logical host has departed or died
   (e.g. a completion wait whose reply must be re-sendable after the
   program's host was destroyed). *)
let inbound_home t (dst : Ids.pid) =
  match Int_table.Ordered.find_opt t.lh_table dst.Ids.lh with
  | Some lh -> Some lh
  | None ->
      if
        Int_table.Direct.mem t.reservations dst.Ids.lh
        || dst.Ids.index < Ids.first_user_index
      then Some t.the_host_lh
      else None

let resolve_vproc t (dst : Ids.pid) =
  if dst.Ids.index < Ids.first_user_index then
    if lh_hosting_or_reserved t dst.Ids.lh then
      Int_table.Ordered.find_opt t.sys_procs dst.Ids.index
    else None
  else
    match Int_table.Ordered.find_opt t.lh_table dst.Ids.lh with
    | None -> None
    | Some lh -> Logical_host.find_process lh dst.Ids.index

type delivery_outcome =
  | Delivered
  | Pending (* queued or in service: duplicate *)
  | Already_replied of Message.t
  | No_target

(* Any request addressed through a reserved logical-host id proves its
   source is still alive and pushes the reservation's expiry forward —
   each pre-copy round's acknowledgement ping does exactly this, so a
   healthy migration never times out. *)
let touch_reservation t lh_id =
  match Int_table.Direct.find_opt t.reservations lh_id with
  | Some r ->
      r.r_expires <- Time.add (Engine.now t.eng) Os_params.reservation_ttl
  | None -> ()

let deliver_request t ~src ~dst ~txn ~msg ~origin =
  touch_reservation t dst.Ids.lh;
  match inbound_home t dst with
  | None -> No_target
  | Some home -> (
      let now = Engine.now t.eng in
      match Logical_host.inbound_find home ~now txn with
      | Some Logical_host.Queued | Some Logical_host.In_service -> Pending
      | Some (Logical_host.Replied (m, _)) ->
          (* Refresh retention: duplicates arriving reset the replier's
             timeout for keeping the reply (Section 3.1.3). *)
          Logical_host.inbound_set home ~now txn
            (Logical_host.Replied (m, Time.add now Os_params.reply_cache_ttl));
          Already_replied m
      | None -> (
          match resolve_vproc t dst with
          | None -> No_target
          | Some vp ->
              Logical_host.inbound_set home ~now txn Logical_host.Queued;
              Mailbox.send (Vproc.inbox vp)
                { Delivery.src; dst; txn; msg; origin };
              emit t (fun () -> Ipc_recv { host = t.name; txn; src; dst });
              Delivered))

(* {2 The send machine} *)

let complete t os result =
  if not os.os_done then begin
    os.os_done <- true;
    Option.iter Engine.cancel os.os_timer;
    os.os_timer <- None;
    Int_table.Ordered.remove t.outstanding os.os_txn;
    Ivar.fill os.os_ivar result
  end

let rec osend_attempt t os =
  if not os.os_done then begin
    let dst = os.os_dst in
    let locally_resolvable =
      (dst.Ids.index < Ids.first_user_index && lh_hosting_or_reserved t dst.Ids.lh)
      || is_resident t dst.Ids.lh
    in
    if locally_resolvable then begin
      if not os.os_local_delivered then
        match
          deliver_request t ~src:os.os_src ~dst ~txn:os.os_txn ~msg:os.os_msg
            ~origin:Delivery.Local
        with
        | Delivered | Pending -> os.os_local_delivered <- true
        | Already_replied m -> complete t os (Ok m)
        | No_target ->
            (* Resident logical host but no such process: fail fast. *)
            complete t os (Error No_response)
      (* Local deliveries are reliable; completion comes via [reply]. *)
    end
    else begin
      os.os_local_delivered <- false;
      let now = Engine.now t.eng in
      if Time.(Time.sub now os.os_last_heard > t.prm.Os_params.give_up_after)
      then complete t os (Error No_response)
      else begin
        let station = binding t dst.Ids.lh in
        (if station >= 0 then begin
           if os.os_attempts_since_heard > 0 then bump t Retransmissions;
           transmit t ~dst:(Addr.of_int station)
             (Packet.Request
                { txn = os.os_txn; src = os.os_src; dst; msg = os.os_msg })
         end
         else begin
           (* A sender with no binding at all queries in either mode
              (initial contact needs a locator even in Demos/MP); the
              ablation's difference is below — stale bindings are never
              invalidated, so a silent correspondent never triggers a
              re-query and only the forwarding address can save it. *)
           bump t Where_is;
           transmit_broadcast t (Packet.Where_is { lh = dst.Ids.lh })
         end);
        os.os_attempts_since_heard <- os.os_attempts_since_heard + 1;
        if
          os.os_attempts_since_heard > Os_params.retries_before_query
          && t.prm.Os_params.rebind = Os_params.Broadcast_query
        then invalidate_binding t dst.Ids.lh;
        (* Exponential backoff: each consecutive unanswered attempt
           widens the interval (capped); any reply or reply-pending
           resets [os_attempts_since_heard] and thus the interval. *)
        let interval =
          let n = max 0 (os.os_attempts_since_heard - 1) in
          Time.min Os_params.retransmit_cap
            (Time.scale Os_params.retransmit_interval
               (Os_params.retransmit_backoff ** float_of_int n))
        in
        os.os_timer <-
          Some (Engine.schedule_after t.eng interval (fun () -> osend_attempt t os))
      end
    end
  end

let make_osend t ~src ~dst msg =
  {
    os_txn = fresh_txn ();
    os_src = src;
    os_dst = dst;
    os_msg = msg;
    os_ivar = Ivar.create ();
    os_done = false;
    os_local_delivered = false;
    os_attempts_since_heard = 0;
    os_last_heard = Engine.now t.eng;
    os_timer = None;
  }

(* Kernel-operation cost: base op, the frozen-state test (13 us), and the
   local-group indirection (100 us) when the target is a kernel server or
   program manager addressed through its logical host (Section 4.1). *)
let charge t ~local_group =
  let p = t.prm in
  let span = Time.add p.Os_params.local_op p.Os_params.frozen_check in
  let span =
    if local_group then Time.add span p.Os_params.group_lookup else span
  in
  Proc.sleep t.eng span

let send ?deadline t ~src ~dst msg =
  charge t ~local_group:(Ids.is_local_group dst);
  bump t Sends;
  let os = make_osend t ~src ~dst msg in
  emit t (fun () -> Ipc_send { host = t.name; txn = os.os_txn; src; dst });
  Int_table.Ordered.replace t.outstanding os.os_txn os;
  osend_attempt t os;
  (* A caller-imposed deadline races the normal completion paths;
     [complete] is idempotent, so whichever fires first wins. *)
  (match deadline with
  | Some at ->
      if Time.(at <= Engine.now t.eng) then complete t os (Error No_response)
      else
        Engine.post t.eng ~at (fun () -> complete t os (Error No_response))
  | None -> ());
  let r = Ivar.read os.os_ivar in
  (match r with Error _ -> bump t Sends_failed | Ok _ -> ());
  r

(* {2 Group sends} *)

let send_group t ~src ~group msg =
  charge t ~local_group:false;
  bump t Group_sends;
  let txn = fresh_txn () in
  let mailbox = Mailbox.create () in
  Int_table.Direct.replace t.group_outstanding txn mailbox;
  (* Local members are delivered directly (the network never loops a
     multicast back to its sender). *)
  (match Pid_table.find_opt t.groups group with
  | None -> ()
  | Some members ->
      List.iter
        (fun vp ->
          Mailbox.send (Vproc.inbox vp)
            { Delivery.src; dst = group; txn; msg; origin = Delivery.Local })
        members);
  transmit_multicast t ~group (Packet.Group_request { txn; src; group; msg });
  { c_txn = txn; c_mailbox = mailbox }

let close_collector t c = Int_table.Direct.remove t.group_outstanding c.c_txn

let collect_first t c ~timeout =
  let r = Mailbox.recv_timeout t.eng c.c_mailbox timeout in
  close_collector t c;
  r

let collect_first_where t c ~accept ~timeout ~grace =
  let now () = Engine.now t.eng in
  (* Wait for a reply the predicate accepts, keeping the first rejected
     one as a fallback. After a rejected reply arrives the remaining wait
     shrinks to [grace]: a deprioritized bidder should not make the caller
     eat the full timeout hoping for a better one. *)
  let rec loop fallback deadline =
    let left = Time.sub deadline (now ()) in
    if Time.(left <= Time.zero) then fallback
    else
      match Mailbox.recv_timeout t.eng c.c_mailbox left with
      | None -> fallback
      | Some r ->
          if accept r then Some r
          else
            let fallback =
              match fallback with None -> Some r | Some _ -> fallback
            in
            loop fallback (Time.min deadline (Time.add (now ()) grace))
  in
  let r = loop None (Time.add (now ()) timeout) in
  close_collector t c;
  r

(* One wake per window: the deadline event closes the collector, so a
   reply delivered after it is dropped even while the caller is paused,
   and wakes the caller, which takes every reply queued before it. *)
let collect_within t c ~window =
  if Time.(window <= Time.zero) then begin
    close_collector t c;
    []
  end
  else begin
    Proc.suspend (fun wake ->
        Engine.post_after t.eng window (fun () ->
            close_collector t c;
            wake ());
        ignore);
    Mailbox.drain c.c_mailbox
  end

(* {2 Receive / reply} *)

let receive t vp =
  let d = Mailbox.recv (Vproc.inbox vp) in
  (if not (is_group_pid d.Delivery.dst) then
     match inbound_home t d.Delivery.dst with
     | Some home ->
         Logical_host.inbound_set home ~now:(Engine.now t.eng) d.Delivery.txn
           Logical_host.In_service
     | None -> ());
  d

let reply ?from t (d : Delivery.t) msg =
  charge t ~local_group:false;
  let reply_src = Option.value from ~default:d.Delivery.dst in
  emit t (fun () ->
      Ipc_reply
        {
          host = t.name;
          txn = d.Delivery.txn;
          src = reply_src;
          dst = d.Delivery.src;
        });
  let route_remote () =
    let cached = binding t d.Delivery.src.Ids.lh in
    let station =
      if cached >= 0 then cached
      else
        match d.Delivery.origin with
        | Delivery.Remote s -> Addr.to_int s
        | Delivery.Local -> -1
    in
    if station >= 0 then
      transmit t ~dst:(Addr.of_int station)
        (Packet.Reply { txn = d.Delivery.txn; src = reply_src; msg })
    (* else unroutable; a duplicate request will re-elicit it *)
  in
  if is_group_pid d.Delivery.dst then
    (* Group replies are best-effort and not retained. *)
    match Int_table.Direct.find_opt t.group_outstanding d.Delivery.txn with
    | Some mailbox when is_resident t d.Delivery.src.Ids.lh ->
        Mailbox.send mailbox (reply_src, msg)
    | Some _ | None -> route_remote ()
  else begin
    (match inbound_home t d.Delivery.dst with
    | Some home ->
        let now = Engine.now t.eng in
        Logical_host.inbound_set home ~now d.Delivery.txn
          (Logical_host.Replied (msg, Time.add now Os_params.reply_cache_ttl))
    | None -> ());
    match Int_table.Ordered.find_opt t.outstanding d.Delivery.txn with
    | Some os when Ids.pid_equal os.os_src d.Delivery.src ->
        (* Sender is local: complete the send directly. If its logical
           host is frozen the filled ivar sits unread until unfreeze. *)
        complete t os (Ok msg)
    | Some _ | None -> route_remote ()
  end

(* {2 Bulk transfers} *)

let bulk_transfer ?to_station t ~bytes =
  if bytes > 0 then
    Transfer.bulk_copy ~pacing:t.prm.Os_params.bulk_pacing
      ?dst:to_station t.net ~bytes

(* {2 Packet reception} *)

let target_frozen t (dst : Ids.pid) =
  match Int_table.Ordered.find_opt t.lh_table dst.Ids.lh with
  | Some lh -> Logical_host.frozen lh
  | None -> false

let handle_request t ~(frame_src : Addr.t) ~txn ~src ~dst ~msg =
  match deliver_request t ~src ~dst ~txn ~msg ~origin:(Delivery.Remote frame_src) with
  | Delivered ->
      if target_frozen t dst then begin
        bump t Reply_pending;
        transmit t ~dst:frame_src (Packet.Reply_pending { txn })
      end
  | Pending ->
      bump t Duplicates;
      bump t Reply_pending;
      transmit t ~dst:frame_src (Packet.Reply_pending { txn })
  | Already_replied m ->
      bump t Duplicates;
      transmit t ~dst:frame_src (Packet.Reply { txn; src = dst; msg = m })
  | No_target -> (
      (* Not ours (any more). In the paper's design the sender rebinds
         via Where_is; in the Demos/MP ablation we relay off a forwarding
         address, preserving the original source station so the reply
         goes back directly — and imposing the residual load on this
         host that Section 5 criticizes. *)
      match Int_table.Direct.find_opt t.forwards dst.Ids.lh with
      | Some station when t.stn <> None ->
          bump t Forwarded;
          emit t (fun () ->
              Ipc_forward
                { host = t.name; txn; lh = dst.Ids.lh; to_station = station });
          let pkt = Packet.Request { txn; src; dst; msg } in
          Ethernet.send t.net
            (Frame.unicast ~src:frame_src ~dst:station
               ~bytes:(Packet.bytes pkt) pkt)
      | Some _ | None -> ())

let handle_reply t ~txn ~dst ~msg =
  match Int_table.Direct.find_opt t.group_outstanding txn with
  | Some mailbox -> Mailbox.send mailbox (dst, msg) |> ignore
  | None -> (
      match Int_table.Ordered.find_opt t.outstanding txn with
      | Some os ->
          let sender_frozen =
            match Int_table.Ordered.find_opt t.lh_table os.os_src.Ids.lh with
            | Some lh -> Logical_host.frozen lh
            | None -> false
          in
          if sender_frozen then begin
            (* Discard; the kernel keeps retransmitting on the frozen
               process' behalf so the replier retains the reply
               (Section 3.1.3). *)
            bump t Replies_discarded_frozen
          end
          else complete t os (Ok msg)
      | None -> ())

let handle_group_request t ~frame_src ~txn ~src ~group ~msg =
  match Pid_table.find_opt t.groups group with
  | None -> ()
  | Some members ->
      List.iter
        (fun vp ->
          Mailbox.send (Vproc.inbox vp)
            {
              Delivery.src;
              dst = group;
              txn;
              msg;
              origin = Delivery.Remote frame_src;
            })
        members

let handle_frame t (frame : Packet.t Frame.t) =
  bump t Packets_rx;
  let frame_src = frame.Frame.src in
  match frame.Frame.payload with
  | Packet.Request { txn; src; dst; msg } ->
      update_binding_from t src frame_src;
      handle_request t ~frame_src ~txn ~src ~dst ~msg
  | Packet.Reply { txn; src; msg } ->
      update_binding_from t src frame_src;
      handle_reply t ~txn ~dst:src ~msg |> ignore
  | Packet.Reply_pending { txn } -> (
      match Int_table.Ordered.find_opt t.outstanding txn with
      | Some os ->
          os.os_last_heard <- Engine.now t.eng;
          os.os_attempts_since_heard <- 0
      | None -> ())
  | Packet.Group_request { txn; src; group; msg } ->
      update_binding_from t src frame_src;
      handle_group_request t ~frame_src ~txn ~src ~group ~msg
  | Packet.Where_is { lh } ->
      if lh_hosting_or_reserved t lh then
        transmit t ~dst:frame_src (Packet.Here_is { lh; station = t.self })
  | Packet.Here_is { lh; station } ->
      if not (is_resident t lh) then begin
        set_binding t lh station;
        (* Kick every send blocked querying for this logical host. *)
        Int_table.Ordered.iter
          (fun _ os ->
            if os.os_dst.Ids.lh = lh && not os.os_done && not os.os_local_delivered
            then begin
              Option.iter Engine.cancel os.os_timer;
              os.os_timer <- None;
              osend_attempt t os
            end)
          t.outstanding
      end

(* {2 Logical hosts, processes} *)

let create_logical_host t ~priority =
  let id = Ids.Lh_allocator.fresh t.alloc in
  let lh = Logical_host.create ~id ~priority in
  make_resident t id lh;
  lh

let spawn_in t lh vp body =
  let thread =
    Proc.spawn t.eng (fun () ->
        Logical_host.gate lh ();
        body vp)
  in
  Vproc.attach_thread vp thread;
  thread

let create_process _t lh = Logical_host.new_process lh

let start_process t vp body =
  let lh =
    match Int_table.Ordered.find_opt t.lh_table (Vproc.pid vp).Ids.lh with
    | Some lh -> lh
    | None -> invalid_arg "Kernel.start_process: unknown logical host"
  in
  ignore (spawn_in t lh vp body)

let spawn_process t lh body =
  let vp = Logical_host.new_process lh in
  ignore (spawn_in t lh vp body);
  vp

let destroy_logical_host t lh =
  let id = Logical_host.id lh in
  List.iter Vproc.kill (Logical_host.processes lh);
  evict_resident t id;
  Int_table.Direct.remove t.fault_sources id;
  invalidate_binding t id;
  (* Wake local senders whose requests died with the host. *)
  List.iter
    (fun vp ->
      List.iter
        (fun (d : Delivery.t) ->
          if d.Delivery.origin = Delivery.Local then
            match Int_table.Ordered.find_opt t.outstanding d.Delivery.txn with
            | Some os -> complete t os (Error No_response)
            | None -> ())
        (Mailbox.drain (Vproc.inbox vp)))
    (Logical_host.processes lh);
  Int_table.Ordered.iter
    (fun _ os ->
      (* Requests addressed through the host's local-group ids live in
         the kernel server / program manager, which survive the destroy
         and will still reply — only sends to the host's own processes
         die with it. *)
      if
        os.os_dst.Ids.lh = id
        && os.os_dst.Ids.index >= Ids.first_user_index
        && os.os_local_delivered && not os.os_done
      then complete t os (Error No_response))
    (Int_table.Ordered.copy t.outstanding);
  (* Sends originated by the dead host complete into the void. *)
  Int_table.Ordered.iter
    (fun txn os ->
      if os.os_src.Ids.lh = id then begin
        Option.iter Engine.cancel os.os_timer;
        Int_table.Ordered.remove t.outstanding txn
      end)
    (Int_table.Ordered.copy t.outstanding);
  emit t (fun () -> Logical_host.Lh_destroyed { host = t.name; lh = id })

let system_process t ~index body =
  assert (index < Ids.first_user_index);
  let vp = Vproc.create (Ids.pid (Logical_host.id t.the_host_lh) index) in
  Int_table.Ordered.replace t.sys_procs index vp;
  ignore (spawn_in t t.the_host_lh vp body);
  vp

(* {2 Groups} *)

let join_group t ~group vp =
  let members =
    match Pid_table.find_opt t.groups group with Some m -> m | None -> []
  in
  Pid_table.replace t.groups group (vp :: members);
  match t.stn with
  | Some s -> Ethernet.subscribe s (multicast_group_id group)
  | None -> ()

let leave_group t ~group vp =
  match Pid_table.find_opt t.groups group with
  | None -> ()
  | Some members ->
      let members = List.filter (fun m -> m != vp) members in
      Pid_table.replace t.groups group members;
      if members = [] then
        match t.stn with
        | Some s -> Ethernet.unsubscribe s (multicast_group_id group)
        | None -> ()

(* {2 Freeze / migrate} *)

let freeze_lh t lh =
  Logical_host.set_frozen lh true;
  Cpu.wait_clear t.kcpu ~owner:(Logical_host.id lh);
  List.iter Vproc.pause (Logical_host.processes lh);
  (* Emitted only after the CPU drained the host's in-flight slice (and
     its slice event), so the freeze-window monitor sees no guest
     progress after this point. *)
  emit t (fun () ->
      Logical_host.Lh_frozen { host = t.name; lh = Logical_host.id lh })

let redeliver_deferred t lh =
  List.iter
    (fun (d : Delivery.t) ->
      match resolve_vproc t d.Delivery.dst with
      | Some vp -> Mailbox.send (Vproc.inbox vp) d
      | None -> ())
    (Logical_host.take_deferred lh)

let restart_osends t lh_id =
  Int_table.Ordered.iter
    (fun _ os ->
      if os.os_src.Ids.lh = lh_id && not os.os_done then osend_attempt t os)
    (Int_table.Ordered.copy t.outstanding)

let unfreeze_lh t lh =
  (* Emitted before any thawed process can resume. *)
  emit t (fun () ->
      Logical_host.Lh_unfrozen { host = t.name; lh = Logical_host.id lh });
  Logical_host.set_frozen lh false;
  List.iter Vproc.unpause (Logical_host.processes lh);
  Logical_host.thaw lh;
  redeliver_deferred t lh;
  restart_osends t (Logical_host.id lh)

let extract_lh ?page_source t lh =
  assert (Logical_host.frozen lh);
  let id = Logical_host.id lh in
  (* Whatever copy discipline moves the host next accounts for every
     page, so any copy-on-reference residency state from a previous
     migration is collapsed here; likewise we stop being a fault client
     of our own source. *)
  List.iter Address_space.make_all_resident (Logical_host.spaces lh);
  Int_table.Direct.remove t.fault_sources id;
  (* 1. Collect outstanding sends originated inside the migrating host:
        they are kernel state that moves with it. *)
  let moved = ref [] in
  Int_table.Ordered.iter
    (fun txn os ->
      if os.os_src.Ids.lh = id then begin
        Option.iter Engine.cancel os.os_timer;
        os.os_timer <- None;
        os.os_local_delivered <- false;
        os.os_last_heard <- Engine.now t.eng;
        Int_table.Ordered.remove t.outstanding txn;
        moved := os :: !moved
      end)
    (Int_table.Ordered.copy t.outstanding);
  (* 2. The host stops being resident here. *)
  evict_resident t id;
  invalidate_binding t id;
  (* 3. Discard queued (unreceived) requests: remote senders keep
        retransmitting and will rebind; local senders restart their send,
        which now takes the remote path (Section 3.1.3). *)
  List.iter
    (fun vp ->
      List.iter
        (fun (d : Delivery.t) ->
          if not (is_group_pid d.Delivery.dst) then
            Logical_host.inbound_remove lh d.Delivery.txn;
          match d.Delivery.origin with
          | Delivery.Local -> (
              match Int_table.Ordered.find_opt t.outstanding d.Delivery.txn with
              | Some os ->
                  os.os_local_delivered <- false;
                  os.os_last_heard <- Engine.now t.eng;
                  osend_attempt t os
              | None -> ())
          | Delivery.Remote _ -> ())
        (Mailbox.drain (Vproc.inbox vp)))
    (Logical_host.processes lh);
  (* 4. Local senders whose requests are in service inside the migrating
        host switch to the remote protocol; duplicate suppression at the
        destination turns their retransmissions into reply-pendings. *)
  Int_table.Ordered.iter
    (fun _ os ->
      if os.os_dst.Ids.lh = id && os.os_local_delivered && not os.os_done then begin
        os.os_local_delivered <- false;
        os.os_last_heard <- Engine.now t.eng;
        osend_attempt t os
      end)
    (Int_table.Ordered.copy t.outstanding);
  emit t (fun () ->
      Logical_host.Lh_extracted
        { host = t.name; lh = id; bytes = Logical_host.total_bytes lh });
  if page_source <> None then Int_table.Direct.replace t.page_sources id ();
  { st_lh = lh; st_osends = !moved; st_page_source = page_source }

(* Re-arming expiry timer: fires at the recorded deadline; if traffic
   refreshed [r_expires] in the meantime, re-arm for the new deadline
   instead of expiring. The closure holds only the id, so a reservation
   consumed by install (or wiped by a crash) makes the timer a no-op. *)
let rec arm_reservation_timer t id =
  match Int_table.Direct.find_opt t.reservations id with
  | None -> ()
  | Some r ->
      Engine.post t.eng ~at:r.r_expires (fun () ->
             match Int_table.Direct.find_opt t.reservations id with
             | None -> ()
             | Some r ->
                 if Time.(r.r_expires <= Engine.now t.eng) then begin
                   Int_table.Direct.remove t.reservations id;
                   recompute_lh_bits t;
                   bump t Reservations_expired
                 end
                 else arm_reservation_timer t id)

let reserve_lh t ~temp_lh ~bytes =
  if memory_free t >= bytes then begin
    Int_table.Direct.replace t.reservations temp_lh
      {
        r_bytes = bytes;
        r_expires = Time.add (Engine.now t.eng) Os_params.reservation_ttl;
      };
    t.lh_bits <- t.lh_bits lor lh_bit temp_lh;
    arm_reservation_timer t temp_lh;
    true
  end
  else false

let cancel_reservation t ~temp_lh =
  Int_table.Direct.remove t.reservations temp_lh;
  recompute_lh_bits t

let install_lh t state =
  if t.stn = None then invalid_arg "Kernel.install_lh: kernel is down";
  let lh = state.st_lh in
  let id = Logical_host.id lh in
  make_resident t id lh;
  (* Residency beats a stale retained-pages marker: set when a
     copy-on-reference install failed and the source resurrects the old
     copy, or when a departed host migrates back home. *)
  Int_table.Direct.remove t.page_sources id;
  invalidate_binding t id;
  List.iter
    (fun os -> Int_table.Ordered.replace t.outstanding os.os_txn os)
    state.st_osends;
  emit t (fun () ->
      Logical_host.Lh_installed
        { host = t.name; lh = id; bytes = Logical_host.total_bytes lh });
  lh

let announce_lh t lh =
  (* The eager rebind broadcast belongs to the query design; the
     forwarding ablation has no such mechanism. *)
  if
    lh_hosting_or_reserved t lh
    && t.prm.Os_params.rebind = Os_params.Broadcast_query
  then transmit_broadcast t (Packet.Here_is { lh; station = t.self })

(* {2 Content-addressed transfer} *)

(* Probe the local cache for every chunk a manifest names, in manifest
   order. A miss is inserted immediately (the bytes are about to arrive
   or be pulled), so duplicates *within* one manifest — every zero page
   after the first — already dedup. Emits the manifest/hit/miss event
   triple consecutively (the dedup monitor pairs on that) and returns
   the missing (chunks, bytes) the source must still ship. *)
let scan_manifest t ~lh ~label ~wire_bytes digests chunk_bytes =
  let hit_chunks = ref 0 and hit_bytes = ref 0 and hit_sum = ref 0 in
  let miss_chunks = ref 0 and miss_bytes = ref 0 and miss_sum = ref 0 in
  let total_bytes = ref 0 and total_sum = ref 0 in
  for i = 0 to Array.length digests - 1 do
    let dg = digests.(i) and b = chunk_bytes.(i) in
    total_bytes := !total_bytes + b;
    total_sum := !total_sum + dg;
    if Content_cache.probe t.cache ~digest:dg ~bytes:b then begin
      incr hit_chunks;
      hit_bytes := !hit_bytes + b;
      hit_sum := !hit_sum + dg
    end
    else begin
      incr miss_chunks;
      miss_bytes := !miss_bytes + b;
      miss_sum := !miss_sum + dg
    end
  done;
  add t Xfer_chunks_hit !hit_chunks;
  add t Xfer_chunks_miss !miss_chunks;
  add t Xfer_bytes_deduped !hit_bytes;
  emit t (fun () ->
      Xfer_manifest
        {
          host = t.name;
          lh;
          label;
          chunks = Array.length digests;
          bytes = !total_bytes;
          wire_bytes;
          digest_sum = !total_sum;
        });
  emit t (fun () ->
      Xfer_chunk_hit
        {
          host = t.name;
          lh;
          label;
          chunks = !hit_chunks;
          bytes = !hit_bytes;
          digest_sum = !hit_sum;
        });
  emit t (fun () ->
      Xfer_chunk_miss
        {
          host = t.name;
          lh;
          label;
          chunks = !miss_chunks;
          bytes = !miss_bytes;
          digest_sum = !miss_sum;
        });
  (!miss_chunks, !miss_bytes)

(* {2 Copy-on-reference page faulting} *)

let serves_pages_for t lh = Int_table.Direct.mem t.page_sources lh
let fault_source t lh = Int_table.Direct.find_opt t.fault_sources lh

let faults_pending t lh_id =
  Int_table.Direct.length t.fault_sources > 0
  && Int_table.Direct.mem t.fault_sources lh_id
  &&
  match Int_table.Ordered.find_opt t.lh_table lh_id with
  | None -> false
  | Some lh ->
      List.exists
        (fun sp -> Address_space.pending_faults sp > 0)
        (Logical_host.spaces lh)

(* Runs in the faulting process' own context at a scheduling boundary
   (never while it holds the CPU): drain the first-touch queues of the
   host's spaces and pull the pages from the old host in one batched
   request. The requester blocks until the page data has crossed the
   wire — that round trip to the source is the copy-on-reference cost
   the paper's Section 3.2 argues against. *)
let service_page_faults t ~self ~lh:lh_id =
  (* Called before every quantum; only copy-on-reference installs add
     fault sources, so the common case skips the probe. *)
  if Int_table.Direct.length t.fault_sources > 0 then
    match Int_table.Direct.find_opt t.fault_sources lh_id with
    | None -> ()
    | Some source -> (
        match Int_table.Ordered.find_opt t.lh_table lh_id with
        | None -> ()
        | Some lh ->
            let pages, bytes =
              if Content_cache.enabled t.cache then begin
                (* Content-addressed fault-in: probe the local cache for
                   each faulted page's source-side digest — image chunks
                   announced by the file server (and anything shipped here
                   before) need no round trip to the old host. Only the
                   misses go in the pull request. The probe runs locally,
                   so the manifest costs nothing on the wire. *)
                let spaces = Logical_host.spaces lh in
                let n =
                  List.fold_left
                    (fun n sp -> n + Address_space.pending_faults sp)
                    0 spaces
                in
                if n = 0 then (0, 0)
                else begin
                  let digests = Array.make n 0 and chunk_bytes = Array.make n 0 in
                  let i = ref 0 in
                  List.iter
                    (fun sp ->
                      let pb = Address_space.page_bytes sp in
                      Address_space.take_pending_faults sp (fun p ->
                          digests.(!i) <- Address_space.source_page_digest sp p;
                          chunk_bytes.(!i) <- pb;
                          incr i))
                    spaces;
                  scan_manifest t ~lh:lh_id ~label:"fault" ~wire_bytes:0
                    digests chunk_bytes
                end
              end
              else
                List.fold_left
                  (fun (p, b) sp ->
                    let n = Address_space.pending_faults sp in
                    Address_space.take_pending_faults sp ignore;
                    (p + n, b + (n * Address_space.page_bytes sp)))
                  (0, 0) (Logical_host.spaces lh)
            in
            if pages > 0 then begin
              bump t Page_faults;
              match
                send t ~src:self ~dst:source
                  (Message.make (Ks_fault_pages { lh = lh_id; pages; bytes }))
              with
              | Ok _ -> ()
              | Error No_response ->
                  (* The source is gone and the unreferenced pages with it —
                     the fragility copy-on-reference accepts. Drop the
                     dependency so the program is not stuck retrying. *)
                  Int_table.Direct.remove t.fault_sources lh_id;
                  emit t (fun () ->
                      Page_source_lost { host = t.name; lh = lh_id })
            end)

(* {2 Kernel server} *)

let modifies_lh body =
  match body with Ks_destroy_lh _ -> true | _ -> false

let ks_body t vp =
  let rec loop () =
    let d = receive t vp in
    (match Int_table.Ordered.find_opt t.lh_table d.Delivery.dst.Ids.lh with
    | Some lh when Logical_host.frozen lh && modifies_lh d.Delivery.msg.Message.body
      ->
        (* Defer operations that modify a frozen logical host; they are
           forwarded to the new host's kernel server after migration
           (Section 3.1.3). *)
        Logical_host.defer_op lh d
    | _ -> (
        match d.Delivery.msg.Message.body with
        | Ks_ping ->
            bump t Ks_pings;
            reply t d (Message.make Ks_pong)
        | Ks_install { state; deadline } ->
            let temp = d.Delivery.dst.Ids.lh in
            cancel_reservation t ~temp_lh:temp;
            let late =
              match deadline with
              | Some dl -> Time.(Engine.now t.eng > dl)
              | None -> false
            in
            if late then
              (* The source's freeze budget has already expired: refusing
                 here (rather than installing late) is what makes the
                 freeze-budget invariant airtight — a committed migration
                 always resumed within its declared budget. The source
                 takes the ordinary refusal path and unfreezes locally. *)
              reply t d (Message.make (Ks_refused "freeze deadline exceeded"))
            else if memory_free t >= Logical_host.total_bytes state.st_lh
            then begin
              let lh = install_lh t state in
              (match state.st_page_source with
              | Some source ->
                  (* Copy-on-reference: the memory image never came.
                     Every page starts absent; first touches queue faults
                     serviced from the old host's kernel server. *)
                  Int_table.Direct.replace t.fault_sources (Logical_host.id lh)
                    source;
                  List.iter Address_space.evict_all (Logical_host.spaces lh)
              | None -> ());
              unfreeze_lh t lh;
              let resumed_at = Engine.now t.eng in
              announce_lh t (Logical_host.id lh);
              reply t d (Message.make (Ks_installed { resumed_at }))
            end
            else reply t d (Message.make (Ks_refused "insufficient memory"))
        | Ks_destroy_lh id -> (
            match find_lh t id with
            | Some lh ->
                destroy_logical_host t lh;
                reply t d (Message.make Ks_ok)
            | None -> reply t d (Message.make (Ks_refused "no such logical host")))
        | Ks_fault_pages { lh = flh; pages; bytes } ->
            if serves_pages_for t flh then begin
              bump t Page_fault_serves;
              emit t (fun () ->
                  Page_fault_service { host = t.name; lh = flh; pages; bytes });
              let to_station =
                match d.Delivery.origin with
                | Delivery.Remote s -> Some s
                | Delivery.Local -> None
              in
              bulk_transfer ?to_station t ~bytes;
              reply t d (Message.make Ks_ok)
            end
            else reply t d (Message.make (Ks_refused "no retained pages"))
        | Ks_xfer_manifest { lh = mlh; label; digests; chunk_bytes } ->
            (* Manifest-first copy, destination side: answer with what
               is still missing. The probe inserts misses, so the bytes
               about to arrive are counted as held from here on. *)
            let wire_bytes = Message.short_bytes + (8 * Array.length digests) in
            let _, bytes =
              scan_manifest t ~lh:mlh ~label ~wire_bytes digests chunk_bytes
            in
            reply t d (Message.make (Ks_xfer_need { bytes }))
        | Ks_content_announce { image; first; count; chunk_bytes } ->
            (* Multicast fan-out: the named chunks just crossed the
               shared wire; count them as held. Group sends expect no
               reply. *)
            if Content_cache.enabled t.cache then begin
              let key = Pagehash.image_key image in
              for i = first to first + count - 1 do
                Content_cache.insert t.cache
                  ~digest:(Pagehash.image_chunk_of_key key ~index:i)
                  ~bytes:chunk_bytes
              done;
              add t Img_announced_chunks count
            end
        | _ -> reply t d (Message.make (Ks_refused "unknown operation"))));
    loop ()
  in
  loop ()

(* {2 Boot / shutdown} *)

let create ~engine:eng ~rng:krng ~tracer:trc ~params:prm ~net ~station:self
    ~host_name:name ~allocator:alloc ~memory_bytes:mem_bytes =
  let host_id = Ids.Lh_allocator.fresh alloc in
  let the_host_lh = Logical_host.create ~id:host_id ~priority:Cpu.Foreground in
  let t =
    {
      eng;
      krng;
      trc;
      prm;
      net;
      stn = None;
      self;
      name;
      alloc;
      mem_bytes;
      kcpu = Cpu.create ~tracer:trc eng ~quantum:Os_params.cpu_quantum;
      lh_table = Int_table.Ordered.create 16;
      res_ids = Array.make 4 0;
      res_lhs = Array.make 4 the_host_lh;
      res_len = 0;
      res_guests = 0;
      lh_bits = 0;
      on_residency = (fun _ ~resident:_ -> ());
      the_host_lh;
      sys_procs = Int_table.Ordered.create 8;
      bindings = Int_table.Flat.create 16;
      outstanding = Int_table.Ordered.create 32;
      group_outstanding = Int_table.Direct.create 8;
      groups = Pid_table.create 8;
      reservations = Int_table.Direct.create 4;
      forwards = Int_table.Direct.create 4;
      page_sources = Int_table.Direct.create 4;
      fault_sources = Int_table.Direct.create 4;
      counts = Array.make (Array.length registry) 0;
      cache = Content_cache.create ~budget:prm.Os_params.content_cache_bytes;
    }
  in
  make_resident t host_id the_host_lh;
  t.stn <- Some (Ethernet.attach net self (fun frame -> handle_frame t frame));
  let ks =
    system_process t ~index:Ids.kernel_server_index
      (ks_body t)
  in
  (* Caching hosts listen for the file server's image-chunk multicasts. *)
  if Content_cache.enabled t.cache then
    join_group t ~group:Ids.content_group ks;
  t

let shutdown t =
  emit t (fun () -> Host_crashed { host = t.name });
  (match t.stn with
  | Some s ->
      Ethernet.detach s;
      t.stn <- None
  | None -> ());
  (* Kill what is *currently resident*: processes of hosted logical
     hosts and the system processes. Logical hosts that migrated away
     run elsewhere and must survive this machine's death. *)
  Int_table.Ordered.iter
    (fun _ lh -> List.iter Vproc.kill (Logical_host.processes lh))
    t.lh_table;
  Int_table.Ordered.iter (fun _ vp -> Vproc.kill vp) t.sys_procs;
  List.iter (evict_resident t)
    (Int_table.Ordered.fold (fun id _ acc -> id :: acc) t.lh_table []);
  Int_table.Ordered.reset t.lh_table;
  Int_table.Ordered.iter
    (fun _ os -> Option.iter Engine.cancel os.os_timer)
    t.outstanding;
  Int_table.Ordered.reset t.outstanding;
  (* Everything else the kernel keeps is RAM, lost with the crash:
     bindings, reply retention, reservations (so no spurious
     [Reservations_expired] ticks from a dead destination), forwarding
     addresses (the Demos/MP ablation's Section 5 failure mode), group
     memberships. *)
  Int_table.Flat.reset t.bindings;
  Int_table.Direct.reset t.group_outstanding;
  Pid_table.reset t.groups;
  Int_table.Direct.reset t.reservations;
  Int_table.Direct.reset t.forwards;
  (* Retained copy-on-reference pages were RAM too: a source crash
     strands every program still faulting from it. *)
  Int_table.Direct.reset t.page_sources;
  Int_table.Direct.reset t.fault_sources;
  recompute_lh_bits t;
  (* The content cache is RAM with the rest. *)
  Content_cache.clear t.cache;
  Int_table.Ordered.reset t.sys_procs;
  Logical_host.inbound_clear t.the_host_lh

let running t = t.stn <> None

let reboot t =
  if t.stn <> None then invalid_arg "Kernel.reboot: kernel is running";
  (* Cold boot on the same station: the host logical host keeps its id
     (so the well-known kernel-server / program-manager pids remain
     valid), but every logical host that lived here and all volatile
     kernel state are gone — correspondents must rebind via the paper's
     query protocol. The caller recreates the machine's services. *)
  (* [install_lh] refuses a down kernel, and the crash evicted every
     guest, so none can have survived to the reboot. *)
  assert (guest_count t = 0);
  make_resident t (Logical_host.id t.the_host_lh) t.the_host_lh;
  t.stn <-
    Some (Ethernet.attach t.net t.self (fun frame -> handle_frame t frame));
  let ks =
    system_process t ~index:Ids.kernel_server_index
      (ks_body t)
  in
  if Content_cache.enabled t.cache then
    join_group t ~group:Ids.content_group ks;
  bump t Reboots;
  emit t (fun () -> Host_rebooted { host = t.name })
