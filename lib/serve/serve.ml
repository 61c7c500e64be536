module Session = struct
  type arrivals =
    | Poisson of float
    | Modulated of { rate : float; modulation : Arrivals.modulation }
    | Trace of Time.t list

  type autoscale = {
    au_interval : Time.span;
    au_min : int;
    au_max : int;
  }

  let default_autoscale =
    { au_interval = Time.of_sec 2.; au_min = 4; au_max = 4096 }

  (* The autoscaler's fixed constants: target utilization, hysteresis
     band (a fraction of the current cap) and the smoothing factor of
     the rate and service-time EWMAs. *)
  let headroom = 0.8
  let band = 0.2
  let alpha = 0.3
  let smooth x prev = (alpha *. x) +. ((1. -. alpha) *. prev)

  type params = {
    arrivals : arrivals;
    duration : Time.span;
    progs : string list;
    max_in_flight : int;
    queue_limit : int;
    balancer_interval : Time.span option;
    strategy : Protocol.strategy option;
    snapshot_every : Time.span option;
    reexec_attempts : int;
    reexec_budget : int option;
    slo_target_ms : float;
    slo_shed_multiple : float option;
    drain_grace : Time.span;
    autoscale : autoscale option;
  }

  let default_params =
    {
      arrivals = Poisson 2.;
      duration = Time.of_sec 120.;
      progs = [ "cc68"; "preprocessor"; "assembler"; "make"; "optimizer" ];
      max_in_flight = 24;
      queue_limit = 64;
      balancer_interval = Some (Time.of_sec 5.);
      strategy = None;
      snapshot_every = Some (Time.of_sec 10.);
      reexec_attempts = 1;
      reexec_budget = None;
      slo_target_ms = 1000.;
      slo_shed_multiple = None;
      drain_grace = Time.of_sec 60.;
      autoscale = None;
    }

  (* Where one submission stands in its lifecycle. A crash can kill the
     submitting shell at any instant; the exit hook reads this cell to
     settle the books for whatever stage the request died in, and the
     normal path marks [Done] before any counter so the hook then does
     nothing. [Slot] means the request owns an admission slot the hook
     must hand back. *)
  type cell = Fresh | Counted | Queued | Slot | Done

  type request = {
    rq_prog : string;
    rq_submitted : Time.t;
    rq_cell : cell ref;
    mutable rq_handle : Remote_exec.handle;
    mutable rq_running : Time.t;  (** Last (re-)execution start. *)
  }

  type t = {
    s_cluster : Cluster.t;
    s_params : params;
    (* Admission: a fixed number of slots; the waiting room is a FIFO of
       gates, each blocking one submitting process. [release] hands the
       freed slot to the first waiter that is still alive, so
       [s_in_flight] stays at the cap while anyone waits. *)
    mutable s_in_flight : int;
    s_waiting : (unit Ivar.t * Time.t * cell ref) Queue.t;
    in_flight_gauge : Stats.Gauge.t;
    queued_gauge : Stats.Gauge.t;
    (* Request accounting. [outstanding] is the number of requests
       counted as submitted but not yet settled into a terminal state;
       every such cell is owned by a live process (dead owners are
       settled by their exit hook), so at any instant it equals the
       requests legitimately still in flight. *)
    mutable outstanding : int;
    mutable submitted : int;
    mutable rejected : int;
    mutable shed : int;
    mutable refused : int;
    mutable completed : int;
    mutable failed : int;
    mutable reexecs : int;
    mutable reexec_pool : int;  (** Cluster-wide re-executions left. *)
    queue_wait_ms : Stats.Summary.t;
    submit_to_running_ms : Stats.Summary.t;
    submit_to_complete_ms : Stats.Summary.t;
    (* Brownout: overload-graceful shedding at submit. *)
    mutable qw_ewma_ms : float;
    mutable in_brownout : bool;
    mutable brownout_entered : Time.t;
    mutable brownout_spans : int;
    mutable brownout_ms : float;
    (* Rebalancing. *)
    mutable migrations : int;
    freeze_ms : Stats.Summary.t;
    mutable s_balancer : Balancer.t option;
    mutable snapshots : Json_min.t list;  (** Reverse order. *)
    (* Autoscaling: the admission cap is mutable; with [autoscale] set a
       periodic controller retargets it from the smoothed arrival rate
       and observed service time (Little's law), inside hysteresis
       bands. Without it the cap stays at [max_in_flight]. *)
    mutable s_cap : int;
    mutable as_rate_ewma : float;  (** Smoothed arrivals/s. *)
    mutable as_service_ewma_ms : float;  (** Smoothed running-to-done. *)
    mutable as_last_submitted : int;
    mutable scale_events : int;
    mutable cap_min_seen : int;
    mutable cap_max_seen : int;
    (* Placement credit backpressure. *)
    mutable credit_sheds : int;
    mutable credits_last_adjust : Time.t;
  }

  let cluster t = t.s_cluster
  let now t = Engine.now (Cluster.engine t.s_cluster)

  (* {1 Admission} *)

  let set_queued_gauge t =
    Stats.Gauge.set t.queued_gauge (float_of_int (Queue.length t.s_waiting))

  (* Waiters killed in the queue stay enqueued (marked [Done] by the
     exit hook); drop any dead prefix so the fast-path emptiness check
     and the slot hand-over only ever see live waiters. *)
  let purge_dead t =
    let rec go () =
      match Queue.peek_opt t.s_waiting with
      | Some (_, _, cell) when !cell = Done ->
          ignore (Queue.pop t.s_waiting);
          go ()
      | _ -> ()
    in
    go ();
    set_queued_gauge t

  let acquire t cell =
    purge_dead t;
    if t.s_in_flight < t.s_cap && Queue.is_empty t.s_waiting then begin
      t.s_in_flight <- t.s_in_flight + 1;
      cell := Slot;
      Stats.Gauge.set t.in_flight_gauge (float_of_int t.s_in_flight);
      Ok ()
    end
    else if Queue.length t.s_waiting >= t.s_params.queue_limit then
      Error "admission queue full"
    else begin
      let gate = Ivar.create () in
      cell := Queued;
      Queue.add (gate, now t, cell) t.s_waiting;
      set_queued_gauge t;
      (* Blocks this simulated process until a slot is handed over;
         [release] marks the cell [Slot] before filling the gate, so
         the slot is owned (and recoverable by the exit hook) even if
         this process is killed before it resumes. *)
      Ivar.read gate;
      Ok ()
    end

  let rec release t =
    if t.s_in_flight > t.s_cap then begin
      (* The autoscaler shrank the cap below the live pool: retire the
         freed slot instead of handing it to a waiter; the pool drains
         to the new cap one completion at a time. *)
      t.s_in_flight <- t.s_in_flight - 1;
      Stats.Gauge.set t.in_flight_gauge (float_of_int t.s_in_flight)
    end
    else
      match Queue.take_opt t.s_waiting with
    | Some (_, _, cell) when !cell = Done ->
        (* A waiter killed in the queue never held the slot; step past
           it and keep looking for a live inheritor. *)
        release t
    | Some (gate, _, cell) ->
        (* Slot transfer: the head of the queue inherits it, so the
           in-flight count is unchanged. Ownership moves before the
           gate opens — see [acquire]. *)
        cell := Slot;
        set_queued_gauge t;
        Ivar.fill gate ()
    | None ->
        set_queued_gauge t;
        t.s_in_flight <- t.s_in_flight - 1;
        Stats.Gauge.set t.in_flight_gauge (float_of_int t.s_in_flight)

  (* After a cap grow, hand slots to queued waiters immediately instead
     of waiting for the next completion. *)
  let rec promote_waiters t =
    if t.s_in_flight < t.s_cap then
      match Queue.take_opt t.s_waiting with
      | Some (_, _, cell) when !cell = Done -> promote_waiters t
      | Some (gate, _, cell) ->
          t.s_in_flight <- t.s_in_flight + 1;
          Stats.Gauge.set t.in_flight_gauge (float_of_int t.s_in_flight);
          cell := Slot;
          set_queued_gauge t;
          Ivar.fill gate ();
          promote_waiters t
      | None -> set_queued_gauge t

  (* Move a request to [Done], retiring it from the outstanding count
     exactly once. *)
  let settle t cell =
    (match !cell with
    | Counted | Queued | Slot -> t.outstanding <- t.outstanding - 1
    | Fresh | Done -> ());
    cell := Done

  (* The exit hook for a submitting shell: settle whatever stage the
     request died in. [Fresh] died before being counted as submitted,
     so it owes nothing; [Counted]/[Queued] were submitted but held no
     slot; [Slot] must also return the slot or admission wedges. *)
  let orphan t cell =
    match !cell with
    | Done | Fresh -> cell := Done
    | Counted | Queued ->
        settle t cell;
        t.failed <- t.failed + 1
    | Slot ->
        settle t cell;
        t.failed <- t.failed + 1;
        release t

  (* {1 Brownout}

     When the estimated queue wait exceeds [slo_shed_multiple] times the
     SLO target, new submissions are shed at the door instead of joining
     a queue they cannot clear in time — partial service beats uniform
     lateness. The estimate is the max of an EWMA of observed queue
     waits and the age of the oldest live waiter (the EWMA alone only
     reflects requests that already got through; the head's age sees a
     stall the moment it happens). Hysteresis: exit only once the
     estimate falls below half the shed threshold. *)

  let head_age_ms t =
    Queue.fold
      (fun acc (_, at, cell) ->
        match acc with
        | Some _ -> acc
        | None ->
            if !cell = Done then None
            else Some (Time.to_ms (Time.sub (now t) at)))
      None t.s_waiting

  let note_queue_wait t ms =
    Stats.Summary.record t.queue_wait_ms ms;
    t.qw_ewma_ms <- (0.2 *. ms) +. (0.8 *. t.qw_ewma_ms);
    (* Per-pod credit windows follow the same overload signal as the
       brownout: when the queue-wait EWMA crosses the shed threshold the
       windows halve (multiplicative decrease), otherwise they reopen a
       credit at a time. Rate-limited so one burst of observations is
       one adjustment, not a collapse. *)
    match t.s_params.slo_shed_multiple with
    | None -> ()
    | Some mult ->
        let at = now t in
        if Time.(Time.sub at t.credits_last_adjust >= Time.of_ms 250.) then begin
          t.credits_last_adjust <- at;
          Placement.note_queue_pressure
            (Cluster.placement t.s_cluster)
            ~over:(t.qw_ewma_ms > mult *. t.s_params.slo_target_ms)
        end

  let sheds_now t =
    match t.s_params.slo_shed_multiple with
    | None -> false
    | Some mult ->
        let threshold = mult *. t.s_params.slo_target_ms in
        let est =
          match head_age_ms t with
          | Some age -> Float.max t.qw_ewma_ms age
          | None ->
              (* No live waiter. If a slot is free, a request arriving
                 now would start immediately — fold that zero-wait
                 observation into the EWMA, otherwise a brownout that
                 shed every arrival (so no queue waits were recorded)
                 could never observe the backlog clearing and would
                 latch on forever. *)
              if t.s_in_flight < t.s_cap then
                t.qw_ewma_ms <- 0.8 *. t.qw_ewma_ms;
              t.qw_ewma_ms
        in
        if t.in_brownout then begin
          if est < 0.5 *. threshold then begin
            t.in_brownout <- false;
            t.brownout_ms <-
              t.brownout_ms
              +. Time.to_ms (Time.sub (now t) t.brownout_entered)
          end
        end
        else if est > threshold then begin
          t.in_brownout <- true;
          t.brownout_entered <- now t;
          t.brownout_spans <- t.brownout_spans + 1
        end;
        t.in_brownout

  (* {1 The request path} *)

  let submit_cell cell t ctx ~prog =
    let submitted_at = now t in
    t.submitted <- t.submitted + 1;
    t.outstanding <- t.outstanding + 1;
    cell := Counted;
    if sheds_now t then begin
      t.shed <- t.shed + 1;
      settle t cell;
      Error "brownout: shedding load"
    end
    else if not (Placement.admit (Cluster.placement t.s_cluster)) then begin
      (* Every pod's credit window is exhausted: real backpressure at
         the door, before the FIFO — the queue cannot clear in time if
         no pod will take the work. *)
      t.shed <- t.shed + 1;
      t.credit_sheds <- t.credit_sheds + 1;
      settle t cell;
      Error "backpressure: no pod credit"
    end
    else
      match acquire t cell with
      | Error e ->
          t.rejected <- t.rejected + 1;
          settle t cell;
          Error e
      | Ok () -> (
          note_queue_wait t (Time.to_ms (Time.sub (now t) submitted_at));
          match Remote_exec.exec ctx ~prog ~target:Remote_exec.Any with
          | Error e ->
              t.refused <- t.refused + 1;
              settle t cell;
              release t;
              Error e
          | Ok h ->
              Stats.Summary.record t.submit_to_running_ms
                (Time.to_ms (Time.sub (now t) submitted_at));
              Ok
                {
                  rq_prog = prog;
                  rq_submitted = submitted_at;
                  rq_cell = cell;
                  rq_handle = h;
                  rq_running = now t;
                })

  let submit t ctx ~prog = submit_cell (ref Fresh) t ctx ~prog

  (* A re-execution spends from the cluster-wide pool as well as the
     request's own allowance: when many hosts die at once (a rack
     crash), the pool caps the total re-exec storm instead of letting
     every orphaned request multiply the load on the survivors. *)
  let rec wait_with_reexec t ctx rq attempts =
    match Remote_exec.wait ctx rq.rq_handle with
    | Ok _ -> Ok ()
    | Error e
      when Remote_exec.host_failure_error e && attempts > 0
           && t.reexec_pool > 0 -> (
        t.reexecs <- t.reexecs + 1;
        t.reexec_pool <- t.reexec_pool - 1;
        (* The lost host's pod credit comes back before re-placing. *)
        Placement.release
          (Cluster.placement t.s_cluster)
          ~host:rq.rq_handle.Remote_exec.h_host;
        match Remote_exec.exec ctx ~prog:rq.rq_prog ~target:Remote_exec.Any with
        | Error e' -> Error e'
        | Ok h ->
            rq.rq_handle <- h;
            rq.rq_running <- now t;
            wait_with_reexec t ctx rq (attempts - 1))
    | Error e -> Error e

  let await t ctx rq =
    let result = wait_with_reexec t ctx rq t.s_params.reexec_attempts in
    settle t rq.rq_cell;
    Placement.release
      (Cluster.placement t.s_cluster)
      ~host:rq.rq_handle.Remote_exec.h_host;
    let span = Time.sub (now t) rq.rq_submitted in
    let outcome =
      match result with
      | Ok () ->
          t.completed <- t.completed + 1;
          Stats.Summary.record t.submit_to_complete_ms (Time.to_ms span);
          let service_ms = Time.to_ms (Time.sub (now t) rq.rq_running) in
          t.as_service_ewma_ms <-
            (if t.as_service_ewma_ms = 0. then service_ms
             else smooth service_ms t.as_service_ewma_ms);
          Ok span
      | Error e ->
          t.failed <- t.failed + 1;
          Error e
    in
    release t;
    outcome

  (* {1 Periodic snapshots} *)

  let take_snapshot t =
    let p pct =
      let s = t.submit_to_running_ms in
      if Stats.Summary.count s = 0 then 0. else Stats.Summary.percentile s pct
    in
    t.snapshots <-
      Json_min.Obj
        [
          ("t_s", Json_min.Num (Time.to_sec (now t)));
          ("submitted", Json_min.Num (float_of_int t.submitted));
          ("completed", Json_min.Num (float_of_int t.completed));
          ("shed", Json_min.Num (float_of_int t.shed));
          ("in_flight", Json_min.Num (float_of_int t.s_in_flight));
          ("cap", Json_min.Num (float_of_int t.s_cap));
          ("queued", Json_min.Num (float_of_int (Queue.length t.s_waiting)));
          ("brownout", Json_min.Bool t.in_brownout);
          ("p95_submit_to_running_ms", Json_min.Num (p 95.));
        ]
      :: t.snapshots

  (* {1 Session construction} *)

  let install_arrivals t =
    let cl = t.s_cluster in
    let eng = Cluster.engine cl in
    let n_ws = Cluster.size cl in
    let progs = Array.of_list t.s_params.progs in
    let launch i =
      let ws = i mod n_ws in
      let prog = progs.(i mod Array.length progs) in
      let cell = ref Fresh in
      let rq_ref = ref None in
      let vp =
        Cluster.shell cl ~ws ~name:(Printf.sprintf "serve-%d" i) (fun ctx ->
            match submit_cell cell t ctx ~prog with
            | Error _ -> ()
            | Ok rq ->
                rq_ref := Some rq;
                ignore (await t ctx rq))
      in
      (* The submitting host can crash at any point of the request's
         life; the exit hook settles the accounting for whatever stage
         it died in, so submitted = rejected + shed + refused +
         completed + failed holds on every seed. A request that had
         already been placed also hands its pod credit back. *)
      let orphan_with_credit () =
        let had_slot = !cell = Slot in
        orphan t cell;
        match !rq_ref with
        | Some rq when had_slot ->
            Placement.release
              (Cluster.placement cl)
              ~host:rq.rq_handle.Remote_exec.h_host
        | _ -> ()
      in
      match Vproc.thread vp with
      | Some thread -> Proc.on_exit thread (fun _ -> orphan_with_credit ())
      | None -> orphan_with_credit ()
    in
    match t.s_params.arrivals with
    | Poisson rate_per_sec ->
        Arrivals.poisson_stream eng (Cluster.rng cl) ~rate_per_sec
          ~until:t.s_params.duration launch
    | Modulated { rate; modulation } ->
        Arrivals.modulated_stream eng (Cluster.rng cl) ~rate_per_sec:rate
          ~modulation ~until:t.s_params.duration launch
    | Trace instants ->
        List.iteri
          (fun i at ->
            if Time.(at <= t.s_params.duration) then
              Engine.post eng ~at (fun () -> launch i))
          instants

  let install_snapshots t =
    match t.s_params.snapshot_every with
    | None -> ()
    | Some every ->
        let eng = Cluster.engine t.s_cluster in
        let n = Time.to_us t.s_params.duration / Stdlib.max 1 (Time.to_us every) in
        for k = 1 to n do
          Engine.post eng
            ~at:(Time.of_us (k * Time.to_us every))
            (fun () -> take_snapshot t)
        done

  (* The autoscaler: every interval, retarget the admission cap at
     predicted_rate x service_time / headroom (Little's law with
     headroom), moving only when the target leaves the hysteresis band
     around the current cap. *)
  let autoscale_tick t au =
    let arrived = t.submitted - t.as_last_submitted in
    t.as_last_submitted <- t.submitted;
    let dt = Time.to_sec au.au_interval in
    let inst = if dt > 0. then float_of_int arrived /. dt else 0. in
    t.as_rate_ewma <- smooth inst t.as_rate_ewma;
    let service_s = t.as_service_ewma_ms /. 1000. in
    if service_s > 0. then begin
      let target =
        int_of_float
          (Float.ceil (t.as_rate_ewma *. service_s /. headroom))
      in
      let target = Stdlib.max au.au_min (Stdlib.min au.au_max target) in
      let slack = int_of_float (band *. float_of_int (Stdlib.max 1 t.s_cap)) in
      if Stdlib.abs (target - t.s_cap) > slack then begin
        t.s_cap <- target;
        t.scale_events <- t.scale_events + 1;
        t.cap_min_seen <- Stdlib.min t.cap_min_seen t.s_cap;
        t.cap_max_seen <- Stdlib.max t.cap_max_seen t.s_cap;
        promote_waiters t
      end
    end

  let install_autoscale t =
    match t.s_params.autoscale with
    | None -> ()
    | Some au ->
        let eng = Cluster.engine t.s_cluster in
        let n =
          Time.to_us t.s_params.duration
          / Stdlib.max 1 (Time.to_us au.au_interval)
        in
        for k = 1 to n do
          Engine.post eng
            ~at:(Time.of_us (k * Time.to_us au.au_interval))
            (fun () -> autoscale_tick t au)
        done

  let create ?(params = default_params) cl =
    if params.progs = [] then invalid_arg "Serve.Session.create: empty progs";
    let eng = Cluster.engine cl in
    let t =
      {
        s_cluster = cl;
        s_params = params;
        s_in_flight = 0;
        s_waiting = Queue.create ();
        in_flight_gauge = Stats.Gauge.create eng ~initial:0.;
        queued_gauge = Stats.Gauge.create eng ~initial:0.;
        outstanding = 0;
        submitted = 0;
        rejected = 0;
        shed = 0;
        refused = 0;
        completed = 0;
        failed = 0;
        reexecs = 0;
        reexec_pool =
          (match params.reexec_budget with Some b -> b | None -> max_int);
        queue_wait_ms = Stats.Summary.create ();
        submit_to_running_ms = Stats.Summary.create ();
        submit_to_complete_ms = Stats.Summary.create ();
        qw_ewma_ms = 0.;
        in_brownout = false;
        brownout_entered = Time.zero;
        brownout_spans = 0;
        brownout_ms = 0.;
        migrations = 0;
        freeze_ms = Stats.Summary.create ();
        s_balancer = None;
        snapshots = [];
        s_cap = params.max_in_flight;
        as_rate_ewma = 0.;
        as_service_ewma_ms = 0.;
        as_last_submitted = 0;
        scale_events = 0;
        cap_min_seen = params.max_in_flight;
        cap_max_seen = params.max_in_flight;
        credit_sheds = 0;
        credits_last_adjust = Time.zero;
      }
    in
    (match params.balancer_interval with
    | None -> ()
    | Some interval ->
        t.s_balancer <-
          Some
            (Balancer.start
               ?health:(Cluster.health cl)
               ~placement:(Cluster.placement cl) ~interval
               ?strategy:params.strategy
               ~on_outcome:(fun o ->
                 t.migrations <- t.migrations + 1;
                 Stats.Summary.record t.freeze_ms
                   (Time.to_ms (Protocol.freeze_span o)))
               (Cluster.workstation cl 0).Cluster.ws_kernel));
    install_arrivals t;
    install_snapshots t;
    install_autoscale t;
    t

  let drain t =
    Cluster.run t.s_cluster
      ~until:(Time.add t.s_params.duration t.s_params.drain_grace)

  (* {1 Metrics} *)

  type metrics = {
    m_submitted : int;
    m_rejected : int;
    m_shed : int;
    m_refused : int;
    m_completed : int;
    m_failed : int;
    m_outstanding : int;
    m_stuck : int;
    m_reexecs : int;
    m_throughput_per_sec : float;
    m_queue_wait_ms : Stats.Summary.t;
    m_submit_to_running_ms : Stats.Summary.t;
    m_submit_to_complete_ms : Stats.Summary.t;
    m_brownout_spans : int;
    m_brownout_ms : float;
    m_migrations : int;
    m_freeze_ms : Stats.Summary.t;
    m_balancer_surveys : int;
    m_balancer_skips : int;
    m_mean_in_flight : float;
    m_mean_queued : float;
    m_cap_final : int;
    m_cap_min : int;
    m_cap_max : int;
    m_scale_events : int;
    m_service_ewma_ms : float;
    m_rate_ewma_per_sec : float;
    m_credit_sheds : int;
    m_placement_policy : string;
    m_placement_selections : int;
    m_placement_timeouts : int;
  }

  let metrics t =
    let horizon_s = Time.to_sec t.s_params.duration in
    {
      m_submitted = t.submitted;
      m_rejected = t.rejected;
      m_shed = t.shed;
      m_refused = t.refused;
      m_completed = t.completed;
      m_failed = t.failed;
      m_outstanding = t.outstanding;
      m_stuck =
        t.submitted - t.rejected - t.shed - t.refused - t.completed - t.failed
        - t.outstanding;
      m_reexecs = t.reexecs;
      m_throughput_per_sec =
        (if horizon_s > 0. then float_of_int t.completed /. horizon_s else 0.);
      m_queue_wait_ms = t.queue_wait_ms;
      m_submit_to_running_ms = t.submit_to_running_ms;
      m_submit_to_complete_ms = t.submit_to_complete_ms;
      m_brownout_spans = t.brownout_spans;
      m_brownout_ms =
        (t.brownout_ms
        +.
        if t.in_brownout then
          Time.to_ms (Time.sub (now t) t.brownout_entered)
        else 0.);
      m_migrations = t.migrations;
      m_freeze_ms = t.freeze_ms;
      m_balancer_surveys =
        (match t.s_balancer with Some b -> Balancer.surveys b | None -> 0);
      m_balancer_skips =
        (match t.s_balancer with Some b -> Balancer.skips b | None -> 0);
      m_mean_in_flight = Stats.Gauge.time_average t.in_flight_gauge;
      m_mean_queued = Stats.Gauge.time_average t.queued_gauge;
      m_cap_final = t.s_cap;
      m_cap_min = t.cap_min_seen;
      m_cap_max = t.cap_max_seen;
      m_scale_events = t.scale_events;
      m_service_ewma_ms = t.as_service_ewma_ms;
      m_rate_ewma_per_sec = t.as_rate_ewma;
      m_credit_sheds = t.credit_sheds;
      m_placement_policy = Placement.name (Cluster.placement t.s_cluster);
      m_placement_selections =
        Placement.selections (Cluster.placement t.s_cluster);
      m_placement_timeouts = Placement.timeouts (Cluster.placement t.s_cluster);
    }

  let summary_json s =
    let n = Stats.Summary.count s in
    let g v = if n = 0 || Float.is_nan v then 0. else v in
    Json_min.Obj
      [
        ("count", Json_min.Num (float_of_int n));
        ("mean", Json_min.Num (g (Stats.Summary.mean s)));
        ("p50", Json_min.Num (g (Stats.Summary.percentile s 50.)));
        ("p95", Json_min.Num (g (Stats.Summary.percentile s 95.)));
        ("p99", Json_min.Num (g (Stats.Summary.percentile s 99.)));
        ("max", Json_min.Num (g (Stats.Summary.max s)));
      ]

  (* Fixed-edge freeze-time histogram: the paper's headline is that
     freezes stay sub-second, so buckets resolve the sub-second range. *)
  let freeze_histogram s =
    let edges = [| 50.; 100.; 200.; 500. |] in
    let counts = Array.make (Array.length edges + 1) 0 in
    List.iter
      (fun v ->
        let rec slot i =
          if i >= Array.length edges then Array.length edges
          else if v < edges.(i) then i
          else slot (i + 1)
        in
        let i = slot 0 in
        counts.(i) <- counts.(i) + 1)
      (Stats.Summary.samples s);
    let label i =
      if i = 0 then Printf.sprintf "<%.0fms" edges.(0)
      else if i = Array.length edges then
        Printf.sprintf ">=%.0fms" edges.(Array.length edges - 1)
      else Printf.sprintf "%.0f-%.0fms" edges.(i - 1) edges.(i)
    in
    Json_min.Arr
      (List.init (Array.length counts) (fun i ->
           Json_min.Obj
             [
               ("bucket", Json_min.Str (label i));
               ("count", Json_min.Num (float_of_int counts.(i)));
             ]))

  let health_json t =
    match Cluster.health t.s_cluster with
    | None -> Json_min.Obj [ ("enabled", Json_min.Bool false) ]
    | Some h ->
        Json_min.Obj
          [
            ("enabled", Json_min.Bool true);
            ("observer", Json_min.Str (Health.observer h));
            ("probes", Json_min.Num (float_of_int (Health.probes h)));
            ( "transitions",
              Json_min.Num (float_of_int (Health.transitions h)) );
            ( "false_suspicions",
              Json_min.Num (float_of_int (Health.false_suspicions h)) );
            ( "dead",
              Json_min.Arr
                (List.map (fun n -> Json_min.Str n) (Health.dead_hosts h)) );
            ( "suspect",
              Json_min.Arr
                (List.map (fun n -> Json_min.Str n) (Health.suspect_hosts h))
            );
          ]

  let metrics_to_json t =
    let m = metrics t in
    let num i = Json_min.Num (float_of_int i) in
    let horizon_s = Time.to_sec t.s_params.duration in
    Json_min.Obj
      [
        ("schema", Json_min.Str "vsim-serve/1");
        ("workstations", num (Cluster.size t.s_cluster));
        ("duration_s", Json_min.Num horizon_s);
        ( "arrivals",
          Json_min.Str
            (match t.s_params.arrivals with
            | Poisson r -> Printf.sprintf "poisson:%g/s" r
            | Modulated { rate; modulation } ->
                Printf.sprintf "modulated:%g/s:%s" rate
                  (Arrivals.modulation_to_string modulation)
            | Trace ts -> Printf.sprintf "trace:%d" (List.length ts)) );
        ("submitted", num m.m_submitted);
        ("rejected", num m.m_rejected);
        ("shed", num m.m_shed);
        ("refused", num m.m_refused);
        ("completed", num m.m_completed);
        ("failed", num m.m_failed);
        ("outstanding", num m.m_outstanding);
        ("stuck", num m.m_stuck);
        ("reexecs", num m.m_reexecs);
        ("throughput_per_sec", Json_min.Num m.m_throughput_per_sec);
        ( "latency_ms",
          Json_min.Obj
            [
              ("queue_wait", summary_json m.m_queue_wait_ms);
              ("submit_to_running", summary_json m.m_submit_to_running_ms);
              ("submit_to_complete", summary_json m.m_submit_to_complete_ms);
            ] );
        ( "brownout",
          Json_min.Obj
            [
              ("spans", num m.m_brownout_spans);
              ("total_ms", Json_min.Num m.m_brownout_ms);
            ] );
        ( "migration",
          Json_min.Obj
            [
              ("count", num m.m_migrations);
              ( "per_sec",
                Json_min.Num
                  (if horizon_s > 0. then
                     float_of_int m.m_migrations /. horizon_s
                   else 0.) );
              ("freeze_ms", summary_json m.m_freeze_ms);
              ("freeze_histogram", freeze_histogram m.m_freeze_ms);
              ("balancer_surveys", num m.m_balancer_surveys);
              ("balancer_skips", num m.m_balancer_skips);
            ] );
        ("health", health_json t);
        ( "autoscale",
          Json_min.Obj
            [
              ("enabled", Json_min.Bool (t.s_params.autoscale <> None));
              ("cap_final", num m.m_cap_final);
              ("cap_min", num m.m_cap_min);
              ("cap_max", num m.m_cap_max);
              ("scale_events", num m.m_scale_events);
              ("rate_ewma_per_sec", Json_min.Num m.m_rate_ewma_per_sec);
              ("service_ewma_ms", Json_min.Num m.m_service_ewma_ms);
            ] );
        ( "placement",
          Json_min.Obj
            [
              ("policy", Json_min.Str m.m_placement_policy);
              ("selections", num m.m_placement_selections);
              ("timeouts", num m.m_placement_timeouts);
              ("credit_sheds", num m.m_credit_sheds);
              ( "pods",
                Json_min.Obj
                  (Placement.pod_stats (Cluster.placement t.s_cluster)) );
            ] );
        ("mean_in_flight", Json_min.Num m.m_mean_in_flight);
        ("mean_queued", Json_min.Num m.m_mean_queued);
        ("snapshots", Json_min.Arr (List.rev t.snapshots));
      ]
end
