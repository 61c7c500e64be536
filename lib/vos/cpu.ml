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

type entry = { wake : unit -> unit; mutable abandoned : bool }

type t = {
  eng : Engine.t;
  quantum : Time.span;
  trc : Tracer.t option;
  fg : entry Queue.t;
  bg : entry Queue.t;
  mutable holder : int; (* owner tag of the running request; -1 when idle *)
  mutable drain_waiters : (int * (unit -> unit)) list;
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

(* Wake the next waiter: all foreground work goes before any background
   work; within a class, FIFO (round-robin, since a preempted request
   re-enqueues at the tail). *)
let grant_next t =
  let rec pop q =
    match Queue.take_opt q with
    | None -> None
    | Some e when e.abandoned -> pop q
    | Some e -> Some e
  in
  match pop t.fg with
  | Some e -> e.wake ()
  | None -> ( match pop t.bg with Some e -> e.wake () | None -> ())

let queue_of t = function Foreground -> t.fg | Background -> t.bg

let must_wait t priority =
  t.holder <> idle || (priority = Background && not (Queue.is_empty t.fg))

let wait_once t priority =
  let entry = ref None in
  Proc.suspend (fun wake ->
      let e = { wake; abandoned = false } in
      entry := Some e;
      Queue.push e (queue_of t priority);
      fun () -> e.abandoned <- true);
  (* Mark consumed so a stale grant can't target this entry again. *)
  match !entry with Some e -> e.abandoned <- true | None -> ()

(* Alternate gate and CPU wait until both pass at once: the gate blocks
   while the caller's logical host is frozen, and a freeze can begin
   while we are queued for the CPU. *)
let rec acquire t gate priority =
  gate ();
  if must_wait t priority then begin
    wait_once t priority;
    acquire t gate priority
  end

let release t =
  t.holder <- idle;
  Stats.Gauge.set t.busy 0.;
  let drains = t.drain_waiters in
  t.drain_waiters <- [];
  List.iter (fun (_, wake) -> wake ()) drains;
  grant_next t

let rec drain_requested owner = function
  | [] -> false
  | (o, _) :: rest -> o = owner || drain_requested owner rest

let has_live_waiter q = Queue.fold (fun acc e -> acc || not e.abandoned) false q

(* One request's hold on the CPU, shared by its process and its slice
   timer. A quantum is a timer event, not a process switch: while the
   request keeps the CPU, the timer accounts each slice and posts the
   next one itself; the process, suspended once, is resumed only when
   the request lets go of the CPU. *)
type run = {
  cpu : t;
  owner : int;
  priority : priority;
  must_release : unit -> bool;
  on_slice : Time.span -> unit;
  next : Time.span -> Time.span;
  mutable remaining : Time.span; (* demand not yet accounted *)
  mutable slice : Time.span; (* in flight; zero once accounted *)
  mutable wake : unit -> unit;
  mutable stale : bool; (* the process was killed: its timer is a no-op *)
  mutable failed : exn option; (* raised by a hook inside the timer *)
  mutable tick : unit -> unit; (* the slice timer, one closure per run *)
}

let start_slice r =
  let t = r.cpu in
  let slice = Time.min t.quantum r.remaining in
  r.slice <- slice;
  (* A straggling host stretches the wall time of each slice; the work
     accomplished (and pages dirtied) per slice is unchanged. *)
  Engine.post_after t.eng
    (if t.slow = 1.0 then slice else Time.scale slice t.slow)
    r.tick

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

(* Whether the request keeps the CPU past the slice [served], just
   accounted. Inside its demand it yields only to a waiter of equal or
   higher priority (strict foreground-over-background, round-robin
   within a class) or to a drain of its owner. At the end of the demand
   it keeps the CPU only where a release followed by the caller's next
   acquire would change nothing: nothing is queued (abandoned entries
   included, which a release would pop) and no drain waits; then
   [next] may commit to a further demand. *)
let keeps_cpu r served =
  let t = r.cpu in
  if Time.(r.remaining > Time.zero) then
    not
      (has_live_waiter t.fg
      || (r.priority = Background && has_live_waiter t.bg)
      || drain_requested r.owner t.drain_waiters)
  else
    Queue.is_empty t.fg && Queue.is_empty t.bg
    && (match t.drain_waiters with [] -> true | _ :: _ -> false)
    &&
    let demand = r.next served in
    Time.(demand > Time.zero)
    && begin
         (* The busy level stays 1; settling it here splits the busy
            integral exactly where the release and re-acquire would. *)
         Stats.Gauge.set t.busy 1.;
         r.remaining <- demand;
         true
       end

(* A slice ends. [must_release] is polled first: a request that must
   let go has its slice accounted by its own process, which a freeze
   may have paused — the accounting then waits for the thaw, as it
   would in a process that slept through the slice. *)
let tick r =
  if not r.stale then
    match
      (not (r.must_release ()))
      &&
      let served = r.slice in
      account r;
      keeps_cpu r served
    with
    | true -> start_slice r
    | false -> r.wake ()
    | exception e ->
        r.failed <- Some e;
        r.wake ()

(* The process acquires the CPU and suspends once per hold; the timer
   resumes it to release the CPU (and re-acquire it while demand
   remains). A normal return has always released the CPU; the handler
   releases it when the request is killed or a hook raises. *)
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
      start_slice r;
      cleanup
    in
    let holding = ref false in
    try
      while Time.(r.remaining > Time.zero) do
        acquire t gate priority;
        t.holder <- owner;
        holding := true;
        Stats.Gauge.set t.busy 1.;
        Proc.suspend register;
        if Time.(r.slice > Time.zero) then account r;
        Option.iter raise r.failed;
        holding := false;
        release t
      done
    with e ->
      if !holding then release t;
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
        t.drain_waiters <- (owner, wake) :: t.drain_waiters;
        fun () ->
          t.drain_waiters <-
            List.filter (fun (_, w) -> w != wake) t.drain_waiters)
  done

let busy_fraction t = Stats.Gauge.time_average t.busy
