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

(* Allocation-free per slice apart from the sleep itself: the counters
   below are plain locals (no closure captures them). A normal return
   has always released the CPU; the handler releases it when the
   request is killed or its hook raises. *)
let compute_sliced ~owner ~gate ~must_release t ~priority span ~on_slice =
  let remaining = ref span in
  let holding = ref false in
  try
    while Time.(!remaining > Time.zero) do
      if not !holding then begin
        acquire t gate priority;
        t.holder <- owner;
        holding := true;
        Stats.Gauge.set t.busy 1.
      end;
      let slice = Time.min t.quantum !remaining in
      (* A straggling host stretches the wall time of each slice; the
         work accomplished (and pages dirtied) per slice is unchanged. *)
      Proc.sleep t.eng (if t.slow = 1.0 then slice else Time.scale slice t.slow);
      remaining := Time.sub !remaining slice;
      (* Account the slice's effects (page dirtying) before any
         release, so a freeze draining the CPU cannot snapshot between
         the two. *)
      (match t.trc with
      | Some trc when Tracer.enabled trc && owner <> 0 ->
          Tracer.emit trc
            (Slice { owner; foreground = priority = Foreground; span = slice })
      | _ -> ());
      on_slice slice;
      (* Yield only to a waiter of equal or higher priority (strict
         foreground-over-background, round-robin within a class), to a
         freeze, or when done. A lone request keeps the CPU across its
         quanta. *)
      if
        Time.(!remaining <= Time.zero)
        || has_live_waiter t.fg
        || (priority = Background && has_live_waiter t.bg)
        || must_release ()
        || drain_requested owner t.drain_waiters
      then begin
        holding := false;
        release t
      end
    done
  with e ->
    if !holding then release t;
    raise e

let compute ?(owner = 0) ?(gate = fun () -> ()) ?(must_release = fun () -> false)
    t ~priority span =
  compute_sliced ~owner ~gate ~must_release t ~priority span
    ~on_slice:(fun _ -> ())

let wait_clear t ~owner =
  while t.holder = owner do
    Proc.suspend (fun wake ->
        t.drain_waiters <- (owner, wake) :: t.drain_waiters;
        fun () ->
          t.drain_waiters <-
            List.filter (fun (_, w) -> w != wake) t.drain_waiters)
  done

let busy_fraction t = Stats.Gauge.time_average t.busy
