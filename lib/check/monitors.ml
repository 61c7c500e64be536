(* Online invariant monitors: incremental automata over the typed trace
   stream. Every event costs O(1) with no string or tuple hashing and, on
   the common path, no allocation, so the bundle can stay attached
   during full fuzz runs. *)

type violation = {
  vi_monitor : string;
  vi_at : Time.t;
  vi_seq : int;
  vi_detail : string;
  vi_window : Tracer.record list;
}

let window_capacity = 33 (* offending event + 32 predecessors *)
let max_violations = 16

(* The monitor registry (documented in monitors.mli): every monitor with
   its catalog name, in catalog order; [index] is its [coverage] slot. *)
type monitor =
  | Clock | Conservation | Convergence | Freeze | Residual | Budget | Dedup

let registry =
  [| Clock, "clock"; Conservation, "conservation"; Convergence, "convergence";
     Freeze, "freeze"; Residual, "residual"; Budget, "budget"; Dedup, "dedup" |]

let index = function
  | Clock -> 0 | Conservation -> 1 | Convergence -> 2 | Freeze -> 3
  | Residual -> 4 | Budget -> 5 | Dedup -> 6

let monitor_names = Array.to_list (Array.map snd registry)

(* Int-keyed tables hashing by identity: logical-host ids are small
   dense ints, so no polymorphic hash is needed. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* A growable bitset over non-negative ints. *)
module Bits = struct
  type t = { mutable b : Bytes.t }

  let create () = { b = Bytes.make 64 '\000' }

  let mem t i =
    let byte = i lsr 3 in
    byte < Bytes.length t.b
    && Char.code (Bytes.unsafe_get t.b byte) land (1 lsl (i land 7)) <> 0

  let set t i on =
    if i < 0 then invalid_arg "Monitors.Bits: negative index";
    let byte = i lsr 3 in
    let len = Bytes.length t.b in
    if byte >= len then begin
      let b = Bytes.make (Stdlib.max (byte + 1) (2 * len)) '\000' in
      Bytes.blit t.b 0 b 0 len;
      t.b <- b
    end;
    let c = Char.code (Bytes.unsafe_get t.b byte) and bit = 1 lsl (i land 7) in
    Bytes.unsafe_set t.b byte
      (Char.unsafe_chr (if on then c lor bit else c land lnot bit))
end

(* Conservation state for one segment. Frame ids are dense per segment
   and every recipient of a frame is delivered inside one engine event,
   so a frame's deliveries form one contiguous run on its segment: when a
   delivery names another frame, the open run has ended for good. *)
type segment = {
  sent : Bits.t; (* frame ids seen in [Frame_sent] *)
  finished : Bits.t; (* frames whose delivery run has ended *)
  attached : Bits.t; (* station addresses currently attached *)
  mutable current : int; (* frame of the open delivery run, or -1 *)
  mutable run : int; (* delivery runs opened so far *)
  mutable got : int array;
      (* station address -> the run that last delivered to it; the open
         run's recipients are the stations stamped [run] *)
}

let new_segment () =
  {
    sent = Bits.create ();
    finished = Bits.create ();
    attached = Bits.create ();
    current = -1;
    run = 0;
    got = Array.make 64 0;
  }

type t = {
  mutable window : Tracer.record array; (* ring; empty until first record *)
  mutable w_next : int; (* next slot to overwrite *)
  mutable w_len : int; (* filled slots *)
  mutable seen : int;
  mutable last_at : Time.t;
  mutable last_seq : int;
  (* conservation, indexed by segment label *)
  mutable segs : segment array;
  (* freeze-window exclusion *)
  frozen : string Itbl.t; (* lh -> host that froze it *)
  (* pre-copy convergence *)
  rounds : int Itbl.t; (* lh -> previous round's bytes *)
  (* no residual dependencies *)
  banned : string list Itbl.t; (* lh -> old hosts it left *)
  (* freeze-budget conformance *)
  budgets : Time.span Itbl.t; (* lh -> declared freeze budget *)
  (* content-transfer manifest accounting *)
  manifests : (string, int * string * int * int * int * bool) Hashtbl.t;
      (* host -> (lh, label, chunks, bytes, digest_sum, hit_seen) left to
         account for; chunks/bytes/digest_sum decrement as the hit/miss
         pair arrives and must hit exactly zero. *)
  (* events each monitor actually inspected, for coverage reports *)
  coverage : int array; (* by [index] *)
  mutable vios : violation list; (* newest first *)
  mutable vio_count : int;
}

let violations t = List.rev t.vios
let dropped t = Stdlib.max 0 (t.vio_count - max_violations)
let events_seen t = t.seen
let ok t = t.vio_count = 0

let touch t m =
  let i = index m in
  t.coverage.(i) <- t.coverage.(i) + 1

let coverage t =
  Array.to_list (Array.map (fun (m, name) -> (name, t.coverage.(index m))) registry)

let capture_window t =
  (* Oldest first; the ring may not be full yet. *)
  let first = if t.w_len < window_capacity then 0 else t.w_next in
  List.init t.w_len (fun i -> t.window.((first + i) mod window_capacity))

let fail t monitor (r : Tracer.record) fmt =
  Format.kasprintf
    (fun detail ->
      t.vio_count <- t.vio_count + 1;
      if t.vio_count <= max_violations then
        t.vios <-
          {
            vi_monitor = snd registry.(index monitor);
            vi_at = r.Tracer.at;
            vi_seq = r.Tracer.seq;
            vi_detail = detail;
            vi_window = capture_window t;
          }
          :: t.vios)
    fmt

let check_clock t (r : Tracer.record) =
  touch t Clock;
  if Time.(r.Tracer.at < t.last_at) then
    fail t Clock r "time ran backwards: %s after %s"
      (Time.to_string r.Tracer.at)
      (Time.to_string t.last_at);
  if t.last_seq >= 0 && r.Tracer.seq <> t.last_seq + 1 then
    fail t Clock r "sequence gap: %d after %d" r.Tracer.seq t.last_seq;
  t.last_at <- r.Tracer.at;
  t.last_seq <- r.Tracer.seq

let segment t seg =
  let n = Array.length t.segs in
  if seg >= n then
    t.segs <-
      Array.init (seg + 1) (fun i -> if i < n then t.segs.(i) else new_segment ());
  t.segs.(seg)

let delivered t (r : Tracer.record) seg frame dst =
  touch t Conservation;
  let s = segment t seg in
  let a = Addr.to_int dst in
  if not (Bits.mem s.sent frame) then
    fail t Conservation r "frame %d delivered on seg %d but never sent" frame
      seg;
  if a >= Array.length s.got then begin
    let got = Array.make (Stdlib.max (a + 1) (2 * Array.length s.got)) 0 in
    Array.blit s.got 0 got 0 (Array.length s.got);
    s.got <- got
  end;
  if frame = s.current then begin
    if s.got.(a) = s.run then
      fail t Conservation r "frame %d delivered twice to %s on seg %d" frame
        (Addr.to_string dst) seg
  end
  else begin
    if s.current >= 0 then Bits.set s.finished s.current true;
    s.current <- frame;
    s.run <- s.run + 1;
    if Bits.mem s.finished frame then
      fail t Conservation r
        "frame %d delivered again to %s on seg %d after its delivery ended"
        frame (Addr.to_string dst) seg
  end;
  s.got.(a) <- s.run;
  if not (Bits.mem s.attached a) then
    fail t Conservation r "frame %d delivered to detached station %s" frame
      (Addr.to_string dst)

let station t seg addr on =
  touch t Conservation;
  Bits.set (segment t seg).attached (Addr.to_int addr) on

let freeze t lh host =
  touch t Freeze;
  Itbl.replace t.frozen lh host

let unfreeze t lh =
  touch t Freeze;
  Itbl.remove t.frozen lh

let slice t (r : Tracer.record) owner =
  touch t Freeze;
  if Itbl.length t.frozen > 0 then
    match Itbl.find_opt t.frozen owner with
    | Some host ->
        fail t Freeze r "lh %d got a CPU slice while frozen on %s" owner host
    | None -> ()

let round t (r : Tracer.record) lh round bytes =
  touch t Convergence;
  (match Itbl.find_opt t.rounds lh with
  | Some prev when bytes > prev ->
      fail t Convergence r "lh %d pre-copy round %d grew: %d bytes after %d" lh
        round bytes prev
  | _ -> ());
  Itbl.replace t.rounds lh bytes

let rec mem_host host = function
  | [] -> false
  | h :: rest -> String.equal h host || mem_host host rest

let residual t (r : Tracer.record) lh host what =
  touch t Residual;
  if Itbl.length t.banned > 0 then
    match Itbl.find_opt t.banned lh with
    | Some hosts when mem_host host hosts ->
        fail t Residual r
          "%s references lh %d on %s after it migrated away: %a" what lh host
          Tracer.pp_record r
    | _ -> ()

let ban t lh host =
  let hosts = Option.value (Itbl.find_opt t.banned lh) ~default:[] in
  if not (mem_host host hosts) then Itbl.replace t.banned lh (host :: hosts)

let unban t lh host =
  match Itbl.find_opt t.banned lh with
  | Some hosts when mem_host host hosts -> (
      match List.filter (fun h -> not (String.equal h host)) hosts with
      | [] -> Itbl.remove t.banned lh
      | rest -> Itbl.replace t.banned lh rest)
  | _ -> ()

(* Freeze-budget conformance: [Mig_budget] declares the ceiling for one
   attempt; the [Mig_committed] that ends that attempt must report a
   freeze window within it. The declaration dies with its attempt
   ([Mig_start] of a retry re-declares, [Mig_aborted] withdraws), so a
   budgeted attempt that aborts and retries unbudgeted is not held to
   the stale ceiling. *)
let commit_budget t (r : Tracer.record) lh freeze =
  match Itbl.find_opt t.budgets lh with
  | Some declared ->
      touch t Budget;
      if Time.(freeze > declared) then
        fail t Budget r "lh %d froze for %s, over its declared budget of %s" lh
          (Time.to_string freeze) (Time.to_string declared);
      Itbl.remove t.budgets lh
  | None -> ()

(* Content-transfer conservation: every [Xfer_manifest] is followed by
   exactly one [Xfer_chunk_hit] and one [Xfer_chunk_miss] for the same
   host/lh/label, and the pair partitions the manifest — chunk counts,
   byte counts and digest sums must each split exactly. A cached chunk
   whose stored bytes differed from the source page, a dropped entry, or
   a double count all break one of the three sums. *)
let manifest t (r : Tracer.record) host lh label chunks bytes digest_sum =
  touch t Dedup;
  if Hashtbl.mem t.manifests host then
    fail t Dedup r
      "manifest on %s (lh %d, %s) before the previous one's hit/miss pair \
       completed"
      host lh label;
  Hashtbl.replace t.manifests host (lh, label, chunks, bytes, digest_sum, false)

let manifest_part t (r : Tracer.record) host lh label chunks bytes digest_sum
    ~last what =
  touch t Dedup;
  match Hashtbl.find_opt t.manifests host with
  | None ->
      fail t Dedup r "%s on %s (lh %d, %s) without a pending manifest" what host
        lh label
  | Some (mlh, mlabel, mc, mb, ms, hit_seen) ->
      if mlh <> lh || mlabel <> label then
        fail t Dedup r
          "%s on %s names lh %d/%s but the pending manifest is lh %d/%s" what
          host lh label mlh mlabel;
      if last <> hit_seen then
        fail t Dedup r "%s on %s out of order in the manifest triple" what host;
      let mc = mc - chunks and mb = mb - bytes and ms = ms - digest_sum in
      if last then begin
        Hashtbl.remove t.manifests host;
        if mc <> 0 || mb <> 0 || ms <> 0 then
          fail t Dedup r
            "manifest on %s (lh %d, %s) not conserved: %d chunks, %d bytes, \
             digest sum %d left unaccounted"
            host lh label mc mb ms
      end
      else Hashtbl.replace t.manifests host (mlh, mlabel, mc, mb, ms, true)

(* One dispatch per record, most frequent kinds first. Where several
   monitors read one kind, they run in catalog order. *)
let handle t (r : Tracer.record) =
  if t.w_len = 0 then t.window <- Array.make window_capacity r;
  t.window.(t.w_next) <- r;
  t.w_next <- (if t.w_next = window_capacity - 1 then 0 else t.w_next + 1);
  if t.w_len < window_capacity then t.w_len <- t.w_len + 1;
  t.seen <- t.seen + 1;
  check_clock t r;
  match r.Tracer.ev with
  | Cpu.Slice { owner; _ } -> slice t r owner
  | Ethernet.Frame_delivered { seg; frame; dst } -> delivered t r seg frame dst
  | Ethernet.Frame_sent { seg; frame; _ } ->
      touch t Conservation;
      Bits.set (segment t seg).sent frame true
  | Kernel.Ipc_recv { host; dst; _ } -> residual t r dst.Ids.lh host "delivery"
  | Kernel.Ipc_forward { host; lh; _ } -> residual t r lh host "forwarding"
  | Kernel.Page_fault_service { host; lh; _ } ->
      (* Copy-on-reference by design: the old host still serves the
         departed program's pages — exactly the dependency the residual
         monitor exists to reject. *)
      residual t r lh host "page-fault service"
  | Ethernet.Station_attached { seg; addr } -> station t seg addr true
  | Ethernet.Station_detached { seg; addr } -> station t seg addr false
  | Logical_host.Lh_frozen { host; lh } ->
      freeze t lh host;
      residual t r lh host "lifecycle event"
  | Logical_host.Lh_unfrozen { host; lh } ->
      unfreeze t lh;
      residual t r lh host "lifecycle event"
  | Logical_host.Lh_destroyed { host; lh } | Logical_host.Lh_extracted { host; lh; _ }
    ->
      residual t r lh host "lifecycle event"
  | Logical_host.Lh_installed { host; lh; _ } ->
      (* A migration back installs a fresh copy — not a residue — and the
         install lands before [Mig_committed], so lift the ban here. *)
      unban t lh host
  | Migration.Mig_start { lh; _ } ->
      touch t Convergence;
      Itbl.remove t.rounds lh;
      Itbl.remove t.budgets lh
  | Migration.Mig_round { lh; round = n; bytes; _ } -> round t r lh n bytes
  | Migration.Mig_budget { lh; freeze; _ } ->
      touch t Budget;
      Itbl.replace t.budgets lh freeze
  | Migration.Mig_aborted { lh; _ } -> Itbl.remove t.budgets lh
  | Migration.Mig_committed { lh; from_host; dest; freeze } ->
      ban t lh from_host;
      unban t lh dest;
      commit_budget t r lh freeze
  | Kernel.Xfer_manifest { host; lh; label; chunks; bytes; digest_sum; _ } ->
      manifest t r host lh label chunks bytes digest_sum
  | Kernel.Xfer_chunk_hit { host; lh; label; chunks; bytes; digest_sum } ->
      manifest_part t r host lh label chunks bytes digest_sum ~last:false
        "chunk-hit"
  | Kernel.Xfer_chunk_miss { host; lh; label; chunks; bytes; digest_sum } ->
      manifest_part t r host lh label chunks bytes digest_sum ~last:true
        "chunk-miss"
  | _ -> ()

let attach trc =
  (* The catch-up below must see every event before the live feed
     starts, or it would shrink silently. *)
  if not (Tracer.keeping trc) then
    invalid_arg "Monitors.attach: the engine has fired and the tracer is not kept";
  let t =
    {
      window = [||];
      w_next = 0;
      w_len = 0;
      seen = 0;
      last_at = Time.zero;
      last_seq = -1;
      segs = [||];
      frozen = Itbl.create 8;
      rounds = Itbl.create 8;
      banned = Itbl.create 8;
      budgets = Itbl.create 8;
      manifests = Hashtbl.create 8;
      coverage = Array.make (Array.length registry) 0;
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
