(* Suspicion-based failure detection over kernel IPC.

   One observer kernel (typically the file server, which fault plans
   never crash) runs a prober process per watched workstation. Each
   prober pings the peer's kernel server on a fixed cadence with an
   adaptive timeout — a simplified phi-accrual detector for virtual
   time: instead of integrating a latency distribution, the timeout is a
   multiple of the EWMA round-trip time, and the "suspicion level" is
   the count of consecutive missed probes measured against that adaptive
   bound. Crossing [suspect_after] misses makes the peer Suspect,
   [dead_after] makes it Dead, and [recover_after] consecutive hits are
   required to return to Alive — the hysteresis that keeps a
   partition-then-heal from flapping the view. *)

type state = Alive | Suspect | Dead

let state_name = function
  | Alive -> "alive"
  | Suspect -> "suspect"
  | Dead -> "dead"

let probe_interval = Time.of_ms 500.
let rtt_alpha = 0.25
let timeout_multiplier = 4.0
let timeout_margin = Time.of_ms 5.
let min_timeout = Time.of_ms 10.
let max_timeout = Time.of_sec 1.
let suspect_after = 2
let dead_after = 4
let recover_after = 2

type peer = {
  p_host : string;
  p_lh : Ids.lh_id;
  mutable p_state : state;
  mutable p_rtt_ewma_us : float;  (* 0. until the first sample *)
  mutable p_misses : int;
  mutable p_hits : int;
  mutable p_probes : int;
}

type t = {
  h_kernel : Kernel.t;
  h_peers : (string, peer) Hashtbl.t;
  h_order : peer array;
  mutable h_transitions : int;
  mutable h_false_suspicions : int;
}

type Tracer.event +=
  | Health_transition of {
      observer : string;
      peer : string;
      from_ : state;
      to_ : state;
    }

let () =
  Tracer.register_view (function
    | Health_transition { observer; peer; from_; to_ } ->
        Tracer.view_as "health" "transition"
          [
            ("observer", Tracer.Str observer);
            ("peer", Str peer);
            ("from", Str (state_name from_));
            ("to", Str (state_name to_));
          ]
    | _ -> None)

let observer t = Kernel.host_name t.h_kernel

let timeout_for p =
  if p.p_rtt_ewma_us <= 0. then max_timeout
  else
    let adaptive =
      Time.add
        (Time.scale
           (Time.of_us (int_of_float p.p_rtt_ewma_us))
           timeout_multiplier)
        timeout_margin
    in
    Time.min max_timeout (Time.max min_timeout adaptive)

let set_state t p to_ =
  if p.p_state <> to_ then begin
    let from_ = p.p_state in
    p.p_state <- to_;
    t.h_transitions <- t.h_transitions + 1;
    if from_ = Suspect && to_ = Alive then
      (* The peer was never dead: the suspicion was a false positive. *)
      t.h_false_suspicions <- t.h_false_suspicions + 1;
    Kernel.emit t.h_kernel (fun () ->
        Health_transition { observer = observer t; peer = p.p_host; from_; to_ })
  end

let note_hit t p rtt_us =
  p.p_misses <- 0;
  p.p_hits <- p.p_hits + 1;
  p.p_rtt_ewma_us <-
    (if p.p_rtt_ewma_us <= 0. then float_of_int rtt_us
     else
       (rtt_alpha *. float_of_int rtt_us)
       +. ((1. -. rtt_alpha) *. p.p_rtt_ewma_us));
  match p.p_state with
  | Alive -> ()
  | Suspect | Dead ->
      if p.p_hits >= recover_after then set_state t p Alive

let note_miss t p =
  p.p_hits <- 0;
  p.p_misses <- p.p_misses + 1;
  if p.p_misses >= dead_after then set_state t p Dead
  else if p.p_misses >= suspect_after && p.p_state = Alive then
    set_state t p Suspect

let prober t i vp =
  let k = t.h_kernel in
  let eng = Kernel.engine k in
  let p = t.h_order.(i) in
  let self = Vproc.pid vp in
  (* Deterministic stagger spreads the probes over one interval so they
     never synchronize (no randomness: replica determinism). *)
  let n = max 1 (Array.length t.h_order) in
  Proc.sleep eng
    (Time.scale probe_interval (float_of_int i /. float_of_int n));
  let rec loop () =
    let t0 = Engine.now eng in
    let deadline = Time.add t0 (timeout_for p) in
    p.p_probes <- p.p_probes + 1;
    (match
       Kernel.send ~deadline k ~src:self
         ~dst:(Ids.kernel_server_of p.p_lh)
         (Message.make Kernel.Ks_ping)
     with
    | Ok { Message.body = Kernel.Ks_pong; _ } ->
        note_hit t p (Time.to_us (Time.sub (Engine.now eng) t0))
    | Ok _ | Error _ -> note_miss t p);
    (* Cadence is anchored to the probe's start so a slow or timed-out
       probe does not stretch the interval. *)
    let wait = Time.sub (Time.add t0 probe_interval) (Engine.now eng) in
    if Time.(wait > Time.zero) then Proc.sleep eng wait;
    loop ()
  in
  loop ()

let start kernel ~peers =
  let mk (host, lh) =
    {
      p_host = host;
      p_lh = lh;
      p_state = Alive;
      p_rtt_ewma_us = 0.;
      p_misses = 0;
      p_hits = 0;
      p_probes = 0;
    }
  in
  let order = Array.of_list (List.map mk peers) in
  let t =
    {
      h_kernel = kernel;
      h_peers = Hashtbl.create (Array.length order);
      h_order = order;
      h_transitions = 0;
      h_false_suspicions = 0;
    }
  in
  Array.iter (fun p -> Hashtbl.replace t.h_peers p.p_host p) order;
  let lh = Kernel.host_lh kernel in
  Array.iteri
    (fun i _ -> ignore (Kernel.spawn_process kernel lh (fun vp -> prober t i vp)))
    order;
  t

let state t host =
  match Hashtbl.find_opt t.h_peers host with
  | Some p -> p.p_state
  | None -> Alive (* unknown hosts (e.g. the file server) are not watched *)

let is_alive t host = state t host = Alive
let is_dead t host = state t host = Dead

let hosts_in t s =
  Array.to_list t.h_order
  |> List.filter_map (fun p -> if p.p_state = s then Some p.p_host else None)

let dead_hosts t = hosts_in t Dead
let suspect_hosts t = hosts_in t Suspect

let summary t =
  Array.to_list t.h_order |> List.map (fun p -> (p.p_host, p.p_state))

let transitions t = t.h_transitions
let false_suspicions t = t.h_false_suspicions
let probes t = Array.fold_left (fun acc p -> acc + p.p_probes) 0 t.h_order
