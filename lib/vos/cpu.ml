type priority = Foreground | Background

(* One event per completed slice, emitted at the same point as the
   [on_slice] hook — before the CPU is released — so a freeze draining
   the CPU observes every slice event strictly before it reports the
   host frozen (the freeze-window monitor depends on this ordering).
   Owner 0 (untagged system work) is not traced. *)
type Tracer.event += Slice of { owner : int; foreground : bool; span : Time.span }

let () =
  Tracer.register_view (function
    | Slice { owner; foreground; span } ->
        Tracer.view_as "cpu" "slice"
          [
            ("owner", Tracer.Int owner);
            ("foreground", Bool foreground);
            ("span", Span span);
          ]
    | _ -> None)

(* One request's hold on the CPU, and its place in the run queue while
   it waits. A quantum is a timer event, not a process switch: the slice
   timer accounts each slice, and passes the CPU on at a preemption or a
   handoff by re-queueing the run itself; the process, suspended once
   per call, resumes only when the request must block. *)
type run = {
  cpu : t;
  owner : int;
  priority : priority;
  must_release : unit -> bool;
  on_slice : Time.span -> unit;
  next : Time.span -> Time.span;
  mutable remaining : Time.span; (* demand not yet accounted *)
  mutable slice : Time.span; (* in flight; zero once accounted *)
  mutable holds : bool; (* the run holds the CPU *)
  mutable wake : unit -> unit;
  mutable stale : bool; (* the process was killed: skip it, ignore its timer *)
  mutable failed : exn option; (* raised by a hook inside the timer *)
  mutable tick : unit -> unit; (* the slice timer, one closure per run *)
}

and t = {
  eng : Engine.t;
  quantum : Time.span;
  trc : Tracer.t option;
  fg : run Queue.t;
  bg : run Queue.t;
  mutable holder : int; (* owner tag of the running request; -1 when idle *)
  mutable drain_waiters : (unit -> unit) list;
      (* all drain the holder's owner: [wait_clear] waits only on it *)
  mutable slow : float; (* wall time per unit of work; 1.0 = nominal *)
  busy : Stats.Gauge.t;
}

let idle = -1

let create ?tracer eng ~quantum =
  {
    eng;
    quantum;
    trc = tracer;
    fg = Queue.create ();
    bg = Queue.create ();
    holder = idle;
    drain_waiters = [];
    slow = 1.0;
    busy = Stats.Gauge.create eng ~initial:0.;
  }

let set_slowdown t f =
  if f < 1.0 then invalid_arg "Cpu.set_slowdown: factor must be >= 1";
  t.slow <- f

let queue_length t =
  Queue.length t.fg + Queue.length t.bg + if t.holder <> idle then 1 else 0

let queue_of t = function Foreground -> t.fg | Background -> t.bg

let must_wait t priority =
  t.holder <> idle || (priority = Background && not (Queue.is_empty t.fg))

(* The one place a slice timer is posted. *)
let start_slice r =
  let t = r.cpu in
  let slice = Time.min t.quantum r.remaining in
  r.slice <- slice;
  (* A straggling host stretches the wall time of each slice; the work
     accomplished (and pages dirtied) per slice is unchanged. *)
  Engine.post_after t.eng
    (if t.slow = 1.0 then slice else Time.scale slice t.slow)
    r.tick

let take r =
  let t = r.cpu in
  t.holder <- r.owner;
  r.holds <- true;
  Stats.Gauge.set t.busy 1.

let hold r =
  take r;
  start_slice r

(* Grant the CPU to the first live run of [q]; false if there is none.
   A killed run is skipped here. A run whose host froze while it waited
   is not started: its process is woken to pass its gate, and the grant
   is lost — the CPU stays idle until something else asks for it. *)
let rec grant_from q =
  (not (Queue.is_empty q))
  &&
  let r = Queue.take q in
  if r.stale then grant_from q
  else begin
    if r.must_release () then r.wake () else hold r;
    true
  end

(* All foreground work goes before any background work; within a class,
   FIFO (round-robin, since a preempted run re-queues at the tail). *)
let release r =
  let t = r.cpu in
  r.holds <- false;
  t.holder <- idle;
  Stats.Gauge.set t.busy 0.;
  let drains = t.drain_waiters in
  t.drain_waiters <- [];
  List.iter (fun wake -> wake ()) drains;
  if not (grant_from t.fg) then ignore (grant_from t.bg)

(* Account the slice's effects (page dirtying) before any release, so a
   freeze draining the CPU cannot snapshot between the two. *)
let account r =
  let slice = r.slice in
  r.slice <- Time.zero;
  r.remaining <- Time.sub r.remaining slice;
  (match r.cpu.trc with
  | Some trc when Tracer.enabled trc && r.owner <> 0 ->
      Tracer.emit trc
        (Slice { owner = r.owner; foreground = r.priority = Foreground; span = slice })
  | _ -> ());
  r.on_slice slice

let has_live_waiter q = Queue.fold (fun acc r -> acc || not r.stale) false q

(* What the slice timer does once a slice is accounted: the run keeps
   the CPU for another slice; it passes the CPU on, releasing it and
   re-queueing at the tail; or its process resumes, to release the CPU
   itself and block. *)
type step = Keep | Pass | Block

(* A drain of the owner blocks the run, so its process meets the gate.
   Inside its demand the run passes the CPU only to a waiter of equal or
   higher priority (strict foreground-over-background, round-robin
   within a class). At the end of its demand the caller's [next] step
   runs here, where the caller would run it between two calls: a
   further demand is served exactly as a release followed by the next
   call's acquire would serve it — kept when nothing is queued
   (killed runs included, which a release would pop), else passed on. *)
let step r served =
  let t = r.cpu in
  match t.drain_waiters with
  | _ :: _ -> Block
  | [] when Time.(r.remaining > Time.zero) ->
      if has_live_waiter t.fg || (r.priority = Background && has_live_waiter t.bg)
      then Pass
      else Keep
  | [] ->
      let demand = r.next served in
      if Time.(demand <= Time.zero) then Block
      else begin
        r.remaining <- demand;
        if Queue.is_empty t.fg && Queue.is_empty t.bg then begin
          (* The busy level stays 1; settling it here splits the busy
             integral exactly where the release and re-acquire would. *)
          Stats.Gauge.set t.busy 1.;
          Keep
        end
        else Pass
      end

(* A slice ends. [must_release] is polled first: a request that must
   let go has its slice accounted by its own process, which a freeze
   may have paused — the accounting then waits for the thaw, as it
   would in a process that slept through the slice. *)
let tick r =
  if not r.stale then
    match
      if r.must_release () then Block
      else begin
        let served = r.slice in
        account r;
        step r served
      end
    with
    | Keep -> start_slice r
    | Pass ->
        release r;
        if must_wait r.cpu r.priority then Queue.push r (queue_of r.cpu r.priority)
        else hold r
    | Block -> r.wake ()
    | exception e ->
        r.failed <- Some e;
        r.wake ()

(* The process passes its gate and suspends once per call; the CPU
   holds or queues the run from there. It resumes to release the CPU
   (and, while demand remains, to pass the gate again), or without the
   CPU when a grant found its host frozen. A normal return has always
   released the CPU; the handler releases it when the request is killed
   or a hook raises. The CPU is taken before the suspension, so a
   process killed while running releases it as it dies. *)
let compute_sliced ~owner ~gate ~must_release t ~priority span ~on_slice ~next =
  if Time.(span > Time.zero) then begin
    let r =
      {
        cpu = t;
        owner;
        priority;
        must_release;
        on_slice;
        next;
        remaining = span;
        slice = Time.zero;
        holds = false;
        wake = ignore;
        stale = false;
        failed = None;
        tick = ignore;
      }
    in
    r.tick <- (fun () -> tick r);
    let cleanup () = r.stale <- true in
    let register wake =
      r.wake <- wake;
      if r.holds then start_slice r else Queue.push r (queue_of t priority);
      cleanup
    in
    try
      while Time.(r.remaining > Time.zero) do
        gate ();
        if not (must_wait t priority) then take r;
        Proc.suspend register;
        if r.holds then begin
          if Time.(r.slice > Time.zero) then account r;
          Option.iter raise r.failed;
          release r
        end
      done
    with e ->
      if r.holds then release r;
      raise e
  end

let no_demand (_ : Time.span) = Time.zero

let compute ?(owner = 0) ?(gate = ignore) ?(must_release = fun () -> false) t
    ~priority span =
  compute_sliced ~owner ~gate ~must_release t ~priority span ~on_slice:ignore
    ~next:no_demand

let wait_clear t ~owner =
  while t.holder = owner do
    Proc.suspend (fun wake ->
        t.drain_waiters <- wake :: t.drain_waiters;
        fun () -> t.drain_waiters <- List.filter (fun w -> w != wake) t.drain_waiters)
  done

let busy_fraction t = Stats.Gauge.time_average t.busy
