type config = { bandwidth_bytes_per_sec : int; loss_probability : float }

let default_config =
  { bandwidth_bytes_per_sec = 1_250_000; loss_probability = 0. }

let propagation = Time.of_us 5
let min_frame_bytes = 64
let max_frame_bytes = 1536

(* Typed trace events. [seg] identifies the segment, [frame] is a
   per-segment transmission id: a bridged relay is a fresh transmission
   on the peer wire, so per-segment conservation (every delivery names a
   prior send) holds even across the store-and-forward bridge. *)
type Tracer.event +=
  | Frame_sent of {
      seg : int;
      frame : int;
      src : Addr.t;
      dst : Frame.dst;
      bytes : int;
    }
  | Frame_dropped of {
      seg : int;
      frame : int;
      src : Addr.t;
      dst : Frame.dst;
      bytes : int;
    }
  | Frame_delivered of { seg : int; frame : int; dst : Addr.t }
  | Station_attached of { seg : int; addr : Addr.t }
  | Station_detached of { seg : int; addr : Addr.t }

let dst_string = function
  | Frame.Unicast a -> Addr.to_string a
  | Frame.Broadcast -> "*"
  | Frame.Multicast g -> Printf.sprintf "group:%d" g

let () =
  Tracer.register_view (function
    | Frame_sent { seg; frame; src; dst; bytes } ->
        Tracer.view_as "net" "frame_sent"
          [
            ("seg", Tracer.Int seg);
            ("frame", Int frame);
            ("src", Str (Addr.to_string src));
            ("dst", Str (dst_string dst));
            ("bytes", Int bytes);
          ]
    | Frame_dropped { seg; frame; src; dst; bytes } ->
        Tracer.view_as "net" "frame_dropped"
          [
            ("seg", Tracer.Int seg);
            ("frame", Int frame);
            ("src", Str (Addr.to_string src));
            ("dst", Str (dst_string dst));
            ("bytes", Int bytes);
          ]
    | Frame_delivered { seg; frame; dst } ->
        Tracer.view_as "net" "frame_delivered"
          [
            ("seg", Tracer.Int seg);
            ("frame", Int frame);
            ("dst", Str (Addr.to_string dst));
          ]
    | Station_attached { seg; addr } ->
        Tracer.view_as "net" "station_attached"
          [ ("seg", Tracer.Int seg); ("addr", Str (Addr.to_string addr)) ]
    | Station_detached { seg; addr } ->
        Tracer.view_as "net" "station_detached"
          [ ("seg", Tracer.Int seg); ("addr", Str (Addr.to_string addr)) ]
    | _ -> None)

(* Every table below is probed, or folded and then sorted, so none
   needs the polymorphic table's iteration order. *)
module Tbl = Int_table.Direct

type 'p station = {
  net : 'p t;
  addr : Addr.t;
  rx : 'p Frame.t -> unit;
  groups : unit Tbl.t;
  mutable live : bool;
}

and 'p link = { lk_peer : 'p t; lk_delay : Time.span; mutable lk_up : bool }

and 'p t = {
  eng : Engine.t;
  rng : Rng.t;
  mutable cfg : config;
  stations : 'p station Tbl.t;
  mutable roster : 'p station array option;
      (* every attached station, sorted by address — the broadcast
         delivery set, rebuilt lazily after attach/detach instead of
         per frame *)
  group_rosters : 'p station array Tbl.t;
      (* group id -> members sorted by address, invalidated on
         subscribe/unsubscribe/detach *)
  mutable busy_until : Time.t;
  mutable peers : 'p link list; (* bridged segments *)
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  trc : Tracer.t option;
  seg : int;
  mutable next_frame : int;
      (* Frame ids advance on every transmission, traced or not, so a
         run's ids are stable no matter when tracing was toggled. *)
}

let create ?(config = default_config) ?tracer ?(seg = 0) eng rng =
  {
    eng;
    rng;
    cfg = config;
    stations = Tbl.create 32;
    roster = None;
    group_rosters = Tbl.create 8;
    busy_until = Time.zero;
    peers = [];
    sent = 0;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    trc = tracer;
    seg;
    next_frame = 0;
  }

(* Trace helper: the thunk defers event allocation to the enabled case,
   keeping disabled-tracer runs allocation-free on the frame path. *)
let ev t mk =
  match t.trc with
  | Some trc when Tracer.enabled trc -> Tracer.emit trc (mk ())
  | _ -> ()

let engine t = t.eng
let config t = t.cfg
let set_loss_local t p = t.cfg <- { t.cfg with loss_probability = p }
let loss t = t.cfg.loss_probability

(* Loss windows are a cluster-wide weather condition: apply to this
   segment and every directly bridged one, so a fault plan's loss window
   behaves uniformly on multi-segment clusters. *)
let set_loss t p =
  set_loss_local t p;
  List.iter (fun l -> set_loss_local l.lk_peer p) t.peers

let attach t addr rx =
  let key = Addr.to_int addr in
  if Tbl.mem t.stations key then
    invalid_arg (Printf.sprintf "Ethernet.attach: %s already attached" (Addr.to_string addr));
  let s = { net = t; addr; rx; groups = Tbl.create 4; live = true } in
  Tbl.replace t.stations key s;
  t.roster <- None;
  ev t (fun () -> Station_attached { seg = t.seg; addr });
  s

let detach s =
  s.live <- false;
  s.net.roster <- None;
  Tbl.iter (fun g () -> Tbl.remove s.net.group_rosters g) s.groups;
  Tbl.remove s.net.stations (Addr.to_int s.addr);
  ev s.net (fun () -> Station_detached { seg = s.net.seg; addr = s.addr })

let attached s = s.live

let subscribe s g =
  if not (Tbl.mem s.groups g) then begin
    Tbl.replace s.groups g ();
    Tbl.remove s.net.group_rosters g
  end

let unsubscribe s g =
  if Tbl.mem s.groups g then begin
    Tbl.remove s.groups g;
    Tbl.remove s.net.group_rosters g
  end

(* Hashtbl order is unspecified; rosters are sorted by address so
   delivery order (and thus whole-cluster runs) stays deterministic. *)
let sorted_station_array stations pred =
  Tbl.fold (fun _ s acc -> if pred s then s :: acc else acc) stations []
  |> List.sort (fun a b -> Addr.compare a.addr b.addr)
  |> Array.of_list

let roster t =
  match t.roster with
  | Some r -> r
  | None ->
      let r = sorted_station_array t.stations (fun _ -> true) in
      t.roster <- Some r;
      r

let group_roster t g =
  match Tbl.find_opt t.group_rosters g with
  | Some r -> r
  | None ->
      let r = sorted_station_array t.stations (fun s -> Tbl.mem s.groups g) in
      Tbl.replace t.group_rosters g r;
      r

let wire_time t bytes =
  let padded = Stdlib.max bytes min_frame_bytes in
  (* Round up so a frame never takes zero wire time. *)
  let us =
    ((padded * 1_000_000) + t.cfg.bandwidth_bytes_per_sec - 1)
    / t.cfg.bandwidth_bytes_per_sec
  in
  Time.of_us us

(* Reserve the medium FIFO-style and return when this frame clears it. *)
let reserve t bytes =
  let start = Time.max (Engine.now t.eng) t.busy_until in
  let clear = Time.add start (wire_time t bytes) in
  t.busy_until <- clear;
  clear

let occupy ?(not_before = Time.zero) t ~bytes =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + bytes;
  let start = Time.max (Time.max (Engine.now t.eng) not_before) t.busy_until in
  let clear = Time.add start (wire_time t bytes) in
  t.busy_until <- clear;
  let lost = Rng.bool t.rng t.cfg.loss_probability in
  if lost then t.dropped <- t.dropped + 1;
  (clear, lost)

(* Deliver to each recipient of [frame] without building an intermediate
   list: the cached rosters are iterated directly, skipping the sender
   and stations that died after the roster was built. *)
let iter_recipients t (frame : 'p Frame.t) f =
  let each s =
    if s.live && not (Addr.equal s.addr frame.src) then f s
  in
  match frame.dst with
  | Frame.Unicast a -> (
      match Tbl.find_opt t.stations (Addr.to_int a) with
      | Some s -> each s
      | None -> ())
  | Frame.Broadcast -> Array.iter each (roster t)
  | Frame.Multicast g -> Array.iter each (group_roster t g)

let bridge a b ~forward_delay =
  a.peers <- { lk_peer = b; lk_delay = forward_delay; lk_up = true } :: a.peers;
  b.peers <- { lk_peer = a; lk_delay = forward_delay; lk_up = true } :: b.peers

let set_link a b up =
  let flip t other =
    List.iter (fun l -> if l.lk_peer == other then l.lk_up <- up) t.peers
  in
  flip a b;
  flip b a

let sever_bridge a b = set_link a b false
let heal_bridge a b = set_link a b true

let locate t addr =
  if Tbl.mem t.stations (Addr.to_int addr) then `Local
  else
    match
      List.find_opt
        (fun l -> l.lk_up && Tbl.mem l.lk_peer.stations (Addr.to_int addr))
        t.peers
    with
    | Some l -> `Peer (l.lk_peer, l.lk_delay)
    | None -> `Unknown

(* Should this frame be relayed onto a peer segment? Unicasts cross only
   toward their destination; broadcast and multicast flood (the bridge
   keeps the cluster "one logical network"). *)
let crosses_to t peer (frame : 'p Frame.t) =
  match frame.Frame.dst with
  | Frame.Unicast a ->
      (not (Tbl.mem t.stations (Addr.to_int a)))
      && Tbl.mem peer.stations (Addr.to_int a)
  | Frame.Broadcast | Frame.Multicast _ -> true

let rec send_on ?(forwarded = false) t (frame : 'p Frame.t) =
  if frame.Frame.bytes > max_frame_bytes then
    invalid_arg
      (Printf.sprintf "Ethernet.send: frame of %d bytes exceeds maximum %d"
         frame.Frame.bytes max_frame_bytes);
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + frame.Frame.bytes;
  let fid = t.next_frame in
  t.next_frame <- t.next_frame + 1;
  (* The per-frame trace guards are inlined (not routed through [ev]) so
     an untraced send allocates no event-constructor thunk. *)
  let tracing =
    match t.trc with Some trc -> Tracer.enabled trc | None -> false
  in
  if tracing then
    ev t (fun () ->
        Frame_sent
          {
            seg = t.seg;
            frame = fid;
            src = frame.Frame.src;
            dst = frame.Frame.dst;
            bytes = frame.Frame.bytes;
          });
  let clear = reserve t frame.Frame.bytes in
  if Rng.bool t.rng t.cfg.loss_probability then begin
    t.dropped <- t.dropped + 1;
    if tracing then
      ev t (fun () ->
          Frame_dropped
            {
              seg = t.seg;
              frame = fid;
              src = frame.Frame.src;
              dst = frame.Frame.dst;
              bytes = frame.Frame.bytes;
            })
  end
  else begin
    let deliver_at = Time.add clear propagation in
    (* One engine event per frame, fanning out to every recipient inside
       the action; deliveries are never cancelled, so [post] skips the
       handle. *)
    Engine.post t.eng ~at:deliver_at (fun () ->
        iter_recipients t frame (fun s ->
            t.delivered <- t.delivered + 1;
            (match t.trc with
            | Some trc when Tracer.enabled trc ->
                Tracer.emit trc
                  (Frame_delivered { seg = t.seg; frame = fid; dst = s.addr })
            | _ -> ());
            s.rx frame));
    (* Store-and-forward relay onto bridged segments: a single hop, after
       the frame has cleared this wire plus the bridge delay. *)
    if not forwarded then
      List.iter
        (fun l ->
          (* The link state is sampled when the frame reaches the bridge:
             a frame in flight when the partition starts is lost, exactly
             like a frame on a real severed wire. *)
          if crosses_to t l.lk_peer frame then
            Engine.post t.eng
              ~at:(Time.add deliver_at l.lk_delay)
              (fun () ->
                if l.lk_up then send_on ~forwarded:true l.lk_peer frame))
        t.peers
  end

let send t frame = send_on t frame

let frames_sent t = t.sent
let frames_delivered t = t.delivered
let frames_dropped t = t.dropped
let bytes_carried t = t.bytes
