(* The traced run's [Tracer.on_event] subscriber. It counts events per
   category/type, charges the host time since the previous event to that
   event's category (an approximate host-time share per layer), and pairs
   events into virtual-time spans that share an id:
   - sched: a query to the next select or timeout from the same host;
   - migrate: start to committed or aborted, by logical host;
   - request: a guest program's first CPU slice to the destruction of
     its logical host (Serve emits no per-request event, so this is the
     part of submit-to-complete the cluster can see).
   Spans stay in memory and are written once, as Chrome trace-event
   JSON. *)

let categories =
  [
    "cpu"; "net"; "ipc"; "bind"; "pm"; "fs"; "sched"; "migrate"; "lh"; "xfer";
    "img"; "health"; "fault"; "other";
  ]

let bucket_of cat = if List.mem cat categories then cat else "other"

type span = {
  sp_name : string;
  sp_cat : string;
  sp_pid : int;
  sp_tid : int;
  sp_start : Time.t;
  sp_stop : Time.t;
}

type t = {
  mutable last : float;
  mutable events : int;
  mutable pid : int;  (* cluster index: lh ids and hosts repeat across clusters *)
  share : (string, float ref) Hashtbl.t;
  kinds : (string * string, int ref) Hashtbl.t;
  sched_open : (string, Time.t Queue.t) Hashtbl.t;
  mig_open : (int, Time.t * bool * int ref) Hashtbl.t;
      (* start, pre-copy?, rounds so far *)
  req_open : (int, Time.t) Hashtbl.t;
  mutable spans : span list;
  mutable slices : int;
  mutable aborts : int;
  select_ms : Stats.Summary.t;
  rounds : Stats.Summary.t;
  residue_kb : Stats.Summary.t;
}

let create () =
  let share = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace share c (ref 0.)) categories;
  {
    last = Unix.gettimeofday ();
    events = 0;
    pid = 0;
    share;
    kinds = Hashtbl.create 32;
    sched_open = Hashtbl.create 64;
    mig_open = Hashtbl.create 64;
    req_open = Hashtbl.create 256;
    spans = [];
    slices = 0;
    aborts = 0;
    select_ms = Stats.Summary.create ();
    rounds = Stats.Summary.create ();
    residue_kb = Stats.Summary.create ();
  }

let count_kind t cat typ =
  match Hashtbl.find_opt t.kinds (cat, typ) with
  | Some r -> incr r
  | None -> Hashtbl.replace t.kinds (cat, typ) (ref 1)

let close t ~name ~cat ~tid ~start ~stop =
  t.spans <-
    {
      sp_name = name;
      sp_cat = cat;
      sp_pid = t.pid;
      sp_tid = tid;
      sp_start = start;
      sp_stop = stop;
    }
    :: t.spans

let pop_query t host =
  match Hashtbl.find_opt t.sched_open host with
  | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
  | _ -> None

let on_record t (r : Tracer.record) =
  let now = Unix.gettimeofday () in
  let v = Tracer.view r.Tracer.ev in
  let cell = Hashtbl.find t.share (bucket_of v.Tracer.v_cat) in
  cell := !cell +. (now -. t.last);
  t.last <- now;
  t.events <- t.events + 1;
  count_kind t v.Tracer.v_cat v.Tracer.v_type;
  let at = r.Tracer.at in
  match r.Tracer.ev with
  | Scheduler.Sched_query { host; _ } ->
      let q =
        match Hashtbl.find_opt t.sched_open host with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace t.sched_open host q;
            q
      in
      Queue.push at q
  | Scheduler.Sched_select { host; _ } -> (
      match pop_query t host with
      | Some start ->
          Stats.Summary.record t.select_ms (Time.to_ms (Time.sub at start));
          close t ~name:"select" ~cat:"sched" ~tid:0 ~start ~stop:at
      | None -> ())
  | Scheduler.Sched_timeout { host; _ } -> (
      match pop_query t host with
      | Some start -> close t ~name:"select-timeout" ~cat:"sched" ~tid:0 ~start ~stop:at
      | None -> ())
  | Migration.Mig_start { lh; strategy; _ } ->
      Hashtbl.replace t.mig_open lh (at, String.equal strategy "precopy", ref 0)
  | Migration.Mig_round { lh; _ } -> (
      match Hashtbl.find_opt t.mig_open lh with
      | Some (_, _, n) -> incr n
      | None -> ())
  | Migration.Mig_frozen_residue { bytes; _ } ->
      Stats.Summary.record t.residue_kb (float_of_int bytes /. 1024.)
  | Migration.Mig_committed { lh; _ } -> (
      match Hashtbl.find_opt t.mig_open lh with
      | Some (start, precopy, n) ->
          Hashtbl.remove t.mig_open lh;
          if precopy then Stats.Summary.record t.rounds (float_of_int !n);
          close t ~name:"migrate" ~cat:"migrate" ~tid:lh ~start ~stop:at
      | None -> ())
  | Migration.Mig_aborted { lh; _ } -> (
      t.aborts <- t.aborts + 1;
      match Hashtbl.find_opt t.mig_open lh with
      | Some (start, _, _) ->
          Hashtbl.remove t.mig_open lh;
          close t ~name:"migrate-aborted" ~cat:"migrate" ~tid:lh ~start ~stop:at
      | None -> ())
  | Cpu.Slice { owner; foreground; _ } ->
      t.slices <- t.slices + 1;
      if (not foreground) && not (Hashtbl.mem t.req_open owner) then
        Hashtbl.replace t.req_open owner at
  | Logical_host.Lh_destroyed { lh; _ } -> (
      match Hashtbl.find_opt t.req_open lh with
      | Some start ->
          Hashtbl.remove t.req_open lh;
          close t ~name:"request" ~cat:"request" ~tid:lh ~start ~stop:at
      | None -> ())
  | _ -> ()

(* Subscribe to a freshly built cluster. Open spans do not carry over:
   ids restart in every cluster. *)
let attach t cl =
  t.pid <- t.pid + 1;
  Hashtbl.reset t.sched_open;
  Hashtbl.reset t.mig_open;
  Hashtbl.reset t.req_open;
  t.last <- Unix.gettimeofday ();
  Tracer.on_event (Cluster.tracer cl) (on_record t)

let pct s p = if Stats.Summary.count s = 0 then 0. else Stats.Summary.percentile s p
let mean s = if Stats.Summary.count s = 0 then 0. else Stats.Summary.mean s

(* Trace-derived per-layer metrics. *)
let metrics t =
  let total = Hashtbl.fold (fun _ r acc -> acc +. !r) t.share 0. in
  [
    ("sim.trace_events", float_of_int t.events);
    ("vos.cpu_slices", float_of_int t.slices);
    ("core.select_p50_ms", pct t.select_ms 50.);
    ("core.select_p99_ms", pct t.select_ms 99.);
    ("core.migration_aborts", float_of_int t.aborts);
    ("core.precopy_rounds_mean", mean t.rounds);
    ("core.residue_kb_p50", pct t.residue_kb 50.);
  ]
  @ List.map
      (fun c ->
        let s = !(Hashtbl.find t.share c) in
        ("trace.host_share." ^ c, if total > 0. then s /. total else 0.))
      categories

let kind_counts t =
  Hashtbl.fold (fun (cat, typ) n acc -> (cat ^ "/" ^ typ, !n) :: acc) t.kinds []
  |> List.sort compare

(* Chrome trace-event JSON: one complete ("X") event per span, in
   virtual microseconds, one process per cluster. *)
let to_chrome t ~workload =
  let num i = Json_min.Num (float_of_int i) in
  let ev sp =
    let ts = Time.to_us sp.sp_start in
    Json_min.Obj
      [
        ("name", Json_min.Str sp.sp_name);
        ("cat", Json_min.Str sp.sp_cat);
        ("ph", Json_min.Str "X");
        ("ts", num ts);
        ("dur", num (Time.to_us sp.sp_stop - ts));
        ("pid", num sp.sp_pid);
        ("tid", num sp.sp_tid);
      ]
  in
  Json_min.Obj
    [
      ("traceEvents", Json_min.Arr (List.rev_map ev t.spans));
      ("displayTimeUnit", Json_min.Str "ms");
      ( "otherData",
        Json_min.Obj
          [
            ("workload", Json_min.Str workload);
            ("clock", Json_min.Str "virtual microseconds");
          ] );
    ]
