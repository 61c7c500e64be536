type selection = { s_pm : Ids.pid; s_host : string; s_responded_in : Time.span }

(* Typed trace events: one [Sched_query] per multicast offer, one
   [Sched_bid] per volunteer heard, one [Sched_select] when a
   destination is committed to, one [Sched_timeout] when a query's
   window closes with no usable bid. [host] is always the querying
   host. *)
type Tracer.event +=
  | Sched_query of { host : string; bytes : int }
  | Sched_bid of { host : string; bidder : string; responded_in : Time.span }
  | Sched_select of { host : string; dest : string }
  | Sched_timeout of { host : string; target : string }

let () =
  Tracer.register_view (function
    | Sched_query { host; bytes } ->
        Tracer.view_as "sched" "query"
          [ ("host", Tracer.Str host); ("bytes", Int bytes) ]
    | Sched_bid { host; bidder; responded_in } ->
        Tracer.view_as "sched" "bid"
          [
            ("host", Tracer.Str host);
            ("bidder", Str bidder);
            ("responded_in", Span responded_in);
          ]
    | Sched_select { host; dest } ->
        Tracer.view_as "sched" "select"
          [ ("host", Tracer.Str host); ("dest", Str dest) ]
    | Sched_timeout { host; target } ->
        Tracer.view_as "sched" "timeout"
          [ ("host", Tracer.Str host); ("target", Str target) ]
    | _ -> None)

(* The bidder's host, if the reply is a bid. *)
let bid_host (_, (m : Message.t)) =
  match m.Message.body with
  | Protocol.Pm_candidate { host } -> Some host
  | _ -> None

let selection_of_reply ~asked_at k ((pm, _) as reply) =
  Option.map
    (fun host ->
      let responded_in = Time.sub (Engine.now (Kernel.engine k)) asked_at in
      Kernel.emit k (fun () ->
          Sched_bid { host = Kernel.host_name k; bidder = host; responded_in });
      { s_pm = pm; s_host = host; s_responded_in = responded_in })
    (bid_host reply)

(* With a health view, known-dead hosts are excluded from the query
   outright and a merely-Suspect bidder is deprioritized: its bid is kept
   as a fallback while we wait (briefly) for an Alive one, instead of
   either trusting it blindly or eating the full select timeout. *)
let grace = Time.scale Config.select_timeout 0.1

module Spine = struct
  let collect_best ?health k c =
    match health with
    | None -> Kernel.collect_first k c ~timeout:Config.select_timeout
    | Some h ->
        Kernel.collect_first_where k c
          ~accept:(fun reply ->
            match bid_host reply with
            | None -> false
            | Some host -> Health.is_alive h host)
          ~timeout:Config.select_timeout ~grace

  let select_in_group ?health ?(exclude = []) ?(label = "*") k ~group ~self
      ~bytes =
    let eng = Kernel.engine k in
    let asked_at = Engine.now eng in
    let exclude =
      match health with
      | None -> exclude
      | Some h -> Health.dead_hosts h @ exclude
    in
    Kernel.emit k (fun () -> Sched_query { host = Kernel.host_name k; bytes });
    let c =
      Kernel.send_group k ~src:self ~group
        (Message.make (Protocol.Pm_query_candidates { bytes; exclude }))
    in
    match collect_best ?health k c with
    | None ->
        Kernel.emit k (fun () ->
            Sched_timeout { host = Kernel.host_name k; target = label });
        Error "no idle workstation volunteered"
    | Some reply -> (
        match selection_of_reply ~asked_at k reply with
        | Some s ->
            Kernel.emit k (fun () ->
                Sched_select { host = Kernel.host_name k; dest = s.s_host });
            Ok s
        | None -> Error "malformed candidate reply")

  let select_host ?health k ~self ~host =
    let eng = Kernel.engine k in
    let asked_at = Engine.now eng in
    match health with
    | Some h when Health.is_dead h host ->
        (* Fast-fail instead of multicasting at a corpse and eating the
           full select timeout. *)
        Error (Printf.sprintf "host %s is dead (health)" host)
    | _ -> (
        Kernel.emit k (fun () ->
            Sched_query { host = Kernel.host_name k; bytes = 0 });
        let c =
          Kernel.send_group k ~src:self ~group:Ids.program_manager_group
            (Message.make (Protocol.Pm_query_host { host }))
        in
        match Kernel.collect_first k c ~timeout:Config.select_timeout with
        | None ->
            Kernel.emit k (fun () ->
                Sched_timeout { host = Kernel.host_name k; target = host });
            Error (Printf.sprintf "host %s did not respond" host)
        | Some reply -> (
            match selection_of_reply ~asked_at k reply with
            | Some s ->
                Kernel.emit k (fun () ->
                    Sched_select { host = Kernel.host_name k; dest = s.s_host });
                Ok s
            | None -> Error "malformed candidate reply"))

  let candidates ?(exclude = []) ?(group = Ids.program_manager_group) k ~self
      ~bytes ~window =
    let asked_at = Engine.now (Kernel.engine k) in
    Kernel.emit k (fun () -> Sched_query { host = Kernel.host_name k; bytes });
    let c =
      Kernel.send_group k ~src:self ~group
        (Message.make (Protocol.Pm_query_candidates { bytes; exclude }))
    in
    List.filter_map
      (selection_of_reply ~asked_at k)
      (Kernel.collect_within k c ~window)
end
