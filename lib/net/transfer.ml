type pacing = { data_frame_bytes : int; per_frame_cpu : Time.span }

(* 1 KB data frames; ~2.1 ms host processing per frame. With the 10 Mbit
   wire (0.82 ms/KB on the wire, 5 us propagation) this yields
   2.93 ms/KB = 3.00 s/MB, the rate measured in Section 4.1 for
   inter-host address-space copies. *)
let v_pacing = { data_frame_bytes = 1024; per_frame_cpu = Time.of_us 2105 }

let frames_needed ~pacing ~bytes =
  (bytes + pacing.data_frame_bytes - 1) / pacing.data_frame_bytes

let per_frame_span ~config ~pacing =
  let wire_bytes =
    Stdlib.max pacing.data_frame_bytes Ethernet.min_frame_bytes
  in
  let wire_us =
    ((wire_bytes * 1_000_000) + config.Ethernet.bandwidth_bytes_per_sec - 1)
    / config.Ethernet.bandwidth_bytes_per_sec
  in
  Time.add
    (Time.add (Time.of_us wire_us) Ethernet.propagation)
    pacing.per_frame_cpu

let duration ~config ~pacing ~bytes =
  if bytes <= 0 then Time.zero
  else Time.mul (per_frame_span ~config ~pacing) (frames_needed ~pacing ~bytes)

let seconds_per_megabyte ~config ~pacing =
  Time.to_sec (duration ~config ~pacing ~bytes:(1024 * 1024))

(* One copy in flight, shared by its process and its pacing timer. *)
type copy = {
  mutable frames_left : int;
  mutable last_arrival : Time.t;
  mutable pace_at : Time.t;
  mutable wake : unit -> unit;
  mutable stale : bool; (* the process was killed: its timer is a no-op *)
}

let bulk_copy ?(pacing = v_pacing) ?dst net ~bytes =
  let eng = Ethernet.engine net in
  let route =
    match dst with Some a -> Ethernet.locate net a | None -> `Local
  in
  let total = frames_needed ~pacing ~bytes in
  if total > 0 then begin
    let c =
      {
        frames_left = total;
        last_arrival = Time.zero;
        pace_at = Time.zero;
        wake = ignore;
        stale = false;
      }
    in
    (* Pacing is governed by the local wire and the hosts' per-frame CPU;
       a store-and-forward bridge pipelines, so the far wire adds latency
       (tracked via the last frame's arrival) rather than halving the
       rate. *)
    let send_frame () =
      let clear, lost = Ethernet.occupy net ~bytes:pacing.data_frame_bytes in
      let local_arrival = Time.add clear Ethernet.propagation in
      let arrival, lost =
        match route with
        | `Local | `Unknown -> (local_arrival, lost)
        | `Peer (peer, delay) ->
            let clear2, lost2 =
              Ethernet.occupy ~not_before:(Time.add local_arrival delay) peer
                ~bytes:pacing.data_frame_bytes
            in
            (Time.add clear2 Ethernet.propagation, lost || lost2)
      in
      c.last_arrival <- Time.max c.last_arrival arrival;
      c.pace_at <- Time.add local_arrival pacing.per_frame_cpu;
      (* A lost frame is retransmitted; the remaining count doesn't drop. *)
      if not lost then c.frames_left <- c.frames_left - 1
    in
    (* Each frame's pace ends in a timer event that sends the next frame
       itself: the process is resumed once, after the last pace. *)
    let rec pace () =
      if not c.stale then
        if c.frames_left > 0 then begin
          send_frame ();
          Engine.post_after eng (Time.sub c.pace_at (Engine.now eng)) pace
        end
        else c.wake ()
    in
    send_frame ();
    Proc.suspend (fun wake ->
        c.wake <- wake;
        Engine.post_after eng (Time.sub c.pace_at (Engine.now eng)) pace;
        fun () -> c.stale <- true);
    (* Block until the tail of the copy has actually landed at the far
       side (plus its processing). *)
    let done_at = Time.add c.last_arrival pacing.per_frame_cpu in
    if Time.(done_at > Engine.now eng) then
      Proc.sleep eng (Time.sub done_at (Engine.now eng))
  end
