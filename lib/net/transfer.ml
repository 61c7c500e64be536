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
  mutable done_at : Time.t; (* the tail landed at the far side, processed *)
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
        done_at = Time.zero;
        pace_at = Time.zero;
        wake = ignore;
        stale = false;
      }
    in
    (* Pacing is governed by the local wire and the hosts' per-frame CPU;
       a store-and-forward bridge pipelines, so the far wire adds latency
       (tracked via [done_at]) rather than halving the rate. *)
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
      c.done_at <- Time.max c.done_at (Time.add arrival pacing.per_frame_cpu);
      c.pace_at <- Time.add local_arrival pacing.per_frame_cpu;
      (* A lost frame is retransmitted; the remaining count doesn't drop. *)
      if not lost then c.frames_left <- c.frames_left - 1
    in
    (* Each frame's pace ends in a timer event that sends the next frame
       itself. The last pace resumes the process once the tail of the
       copy has landed: at once, or by one more timer. *)
    let rec pace () =
      if not c.stale then
        if c.frames_left > 0 then begin
          send_frame ();
          Engine.post_after eng (Time.sub c.pace_at (Engine.now eng)) pace
        end
        else
          let tail = Time.sub c.done_at (Engine.now eng) in
          if Time.(tail > Time.zero) then Engine.post_after eng tail c.wake
          else c.wake ()
    in
    send_frame ();
    Proc.suspend (fun wake ->
        c.wake <- wake;
        Engine.post_after eng (Time.sub c.pace_at (Engine.now eng)) pace;
        fun () -> c.stale <- true)
  end
