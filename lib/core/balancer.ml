type Tracer.event +=
  | Bal_move of { host : string; guests : int; floor : int }
  | Bal_skip of { reason : string }

let () =
  Tracer.register_view (function
    | Bal_move { host; guests; floor } ->
        Tracer.view_as "balance" "move"
          [
            ("host", Tracer.Str host);
            ("guests", Int guests);
            ("floor", Int floor);
          ]
    | Bal_skip { reason } ->
        Tracer.view_as "balance" "skip" [ ("reason", Tracer.Str reason) ]
    | _ -> None)

type t = {
  daemon : Proc.t;
  mutable survey_count : int;
  mutable rebalance_count : int;
  mutable skip_count : int;
}

let surveys t = t.survey_count
let rebalances t = t.rebalance_count
let skips t = t.skip_count
let stop t = Proc.kill t.daemon

(* One survey: every program manager's migratable-guest list, with the
   manager's own (stable) pid from the reply. *)
let survey ?(group = Ids.program_manager_group) k ~self =
  Remote_exec.survey k ~self ~group ~window:(Time.of_ms 200.)
  |> List.map (fun (pm, host, _, guests) -> (pm, host, guests))
  |> List.sort (fun (_, a, _) (_, b, _) -> String.compare a b)

(* With a health view the survey is consulted through it: replies from
   hosts the detector does not trust are dropped, so a Suspect host is
   neither chosen as the migration source (its manager may be about to
   die and the request would eat a full send timeout) nor counted as the
   idle floor. *)
let trusted health (_, host, _) =
  match health with None -> true | Some h -> Health.is_alive h host

(* Before surveying at all: if the detector can already see that fewer
   than two watched peers are alive, a survey cannot yield a rebalance —
   skip the multicast and its collection window entirely. *)
let worth_surveying health =
  match health with
  | None -> true
  | Some h ->
      let watched = Health.summary h in
      watched = []
      || List.length (List.filter (fun (_, s) -> s = Health.Alive) watched) >= 2

(* A cycle moves a guest only when the busiest host runs at least this
   many more guests than the idlest volunteer. *)
let imbalance = 2

let rebalance_once ?health ?group ?strategy t k ~self ~on_outcome =
  match List.filter (trusted health) (survey ?group k ~self) with
  | [] | [ _ ] -> ()
  | loads ->
      let by_load =
        List.sort
          (fun (_, _, a) (_, _, b) -> Int.compare (List.length a) (List.length b))
          loads
      in
      let _, _, least = List.hd by_load in
      let floor = List.length least in
      (* Busiest first. A surveyed host can crash between answering the
         survey and receiving the migrate request — the send then gives
         up with no-response. Skip it and try the next-busiest candidate
         rather than abandoning the cycle (and never let a dead host
         wedge the daemon). The list is sorted, so the first candidate
         below the imbalance threshold ends the scan. *)
      let rec try_candidates = function
        | [] -> ()
        | (busy_pm, busy_host, busiest) :: rest -> (
            match busiest with
            | victim :: _ when List.length busiest - floor >= imbalance -> (
                Kernel.emit k (fun () ->
                    let guests = List.length busiest in
                    Bal_move { host = busy_host; guests; floor });
                match
                  Remote_exec.migrate ?strategy k ~self ~pm:busy_pm
                    (Some victim)
                with
                | Ok (_ :: _ as os) ->
                    t.rebalance_count <- t.rebalance_count + 1;
                    List.iter on_outcome os
                | Ok [] | Error _ ->
                    t.skip_count <- t.skip_count + 1;
                    Kernel.emit k (fun () ->
                        Bal_skip
                          { reason = busy_host ^ " unreachable or refused" });
                    try_candidates rest)
            | _ -> ())
      in
      try_candidates (List.rev by_load)

let start ?health ?placement ?(interval = Time.of_sec 5.) ?strategy
    ?(on_outcome = fun (_ : Protocol.migration_outcome) -> ()) k =
  let eng = Kernel.engine k in
  let lh = Kernel.create_logical_host k ~priority:Cpu.Foreground in
  let self = Vproc.pid (Kernel.create_process k lh) in
  (* Under a pod-sharded placement each cycle sweeps one pod's group,
     round-robin, so a sweep never multicasts beyond one scheduling
     domain; guests therefore also stay within their pod. The flat
     policy (and no policy) sweeps the single global group. *)
  let cycle = ref 0 in
  let group_for_cycle () =
    match placement with
    | None -> None
    | Some p -> (
        match Placement.survey_groups p with
        | [] -> None
        | gs ->
            let g = List.nth gs (!cycle mod List.length gs) in
            incr cycle;
            Some g)
  in
  let t_cell = ref None in
  let daemon =
    Proc.spawn eng (fun () ->
        let rec loop () =
          Proc.sleep eng interval;
          (match !t_cell with
          | Some t when not (worth_surveying health) ->
              t.skip_count <- t.skip_count + 1;
              Kernel.emit k (fun () ->
                  Bal_skip { reason = "fewer than two peers alive" })
          | Some t -> (
              t.survey_count <- t.survey_count + 1;
              let group = group_for_cycle () in
              (* A cycle must never take the daemon down: whatever a
                 mid-cycle crash does to the survey or the migrate
                 conversation, absorb it and try again next interval. *)
              try
                rebalance_once ?health ?group ?strategy t k ~self ~on_outcome
              with exn ->
                t.skip_count <- t.skip_count + 1;
                Kernel.emit k (fun () ->
                    Bal_skip
                      { reason = "cycle aborted: " ^ Printexc.to_string exn }))
          | None -> ());
          loop ()
        in
        loop ())
  in
  let t = { daemon; survey_count = 0; rebalance_count = 0; skip_count = 0 } in
  t_cell := Some t;
  t
