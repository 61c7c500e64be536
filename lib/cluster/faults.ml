(* Typed trace event, one per injected action (window edges included),
   so monitors and post-mortems can correlate violations with the fault
   that provoked them. *)
type Tracer.event += Fault_injected of { kind : string; detail : string }

let () =
  Tracer.register_view (function
    | Fault_injected { kind; detail } ->
        Tracer.view_as "fault" "injected"
          [ ("kind", Tracer.Str kind); ("detail", Str detail) ]
    | _ -> None)

type event =
  | Crash_host of { host : string; at : Time.t }
  | Reboot_host of { host : string; at : Time.t }
  | Loss_window of { p : float; start : Time.t; stop : Time.t }
  | Partition_bridge of { start : Time.t; stop : Time.t }
  | Slow_host of { host : string; factor : float; start : Time.t; stop : Time.t }
  | Flaky_host of { host : string; start : Time.t; stop : Time.t }
  | Crash_rack of { hosts : string list; at : Time.t }

type plan = event list

let kind_of_event = function
  | Crash_host _ -> "crash"
  | Reboot_host _ -> "reboot"
  | Loss_window _ -> "loss"
  | Partition_bridge _ -> "partition"
  | Slow_host _ -> "slow"
  | Flaky_host _ -> "flaky"
  | Crash_rack _ -> "crashrack"

let all_kinds =
  [ "crash"; "reboot"; "loss"; "partition"; "slow"; "flaky"; "crashrack" ]

let declared_kinds plan =
  List.sort_uniq String.compare (List.map kind_of_event plan)

(* {2 Canonical printing}

   [pp_event] emits exactly the [--faults] clause syntax [parse]
   accepts, so a plan survives a print/parse round trip unchanged.
   Times print as seconds at full microsecond precision (the internal
   resolution) with trailing zeros trimmed — [Time.of_sec] rounds to
   the nearest microsecond, so re-parsing recovers the same instant. *)

let secs t =
  let us = Time.to_us t in
  let s = Printf.sprintf "%d.%06d" (us / 1_000_000) (us mod 1_000_000) in
  let n = ref (String.length s) in
  while s.[!n - 1] = '0' do
    decr n
  done;
  if s.[!n - 1] = '.' then decr n;
  String.sub s 0 !n

(* Shortest decimal that reads back as the same float. *)
let flo f =
  let s = Printf.sprintf "%.12g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let pp_event ppf = function
  | Crash_host { host; at } ->
      Format.fprintf ppf "crash:%s@%s" host (secs at)
  | Reboot_host { host; at } ->
      Format.fprintf ppf "reboot:%s@%s" host (secs at)
  | Loss_window { p; start; stop } ->
      Format.fprintf ppf "loss:%s@%s-%s" (flo p) (secs start) (secs stop)
  | Partition_bridge { start; stop } ->
      Format.fprintf ppf "partition@%s-%s" (secs start) (secs stop)
  | Slow_host { host; factor; start; stop } ->
      Format.fprintf ppf "slow:%sx%s@%s-%s" host (flo factor) (secs start)
        (secs stop)
  | Flaky_host { host; start; stop } ->
      Format.fprintf ppf "flaky:%s@%s-%s" host (secs start) (secs stop)
  | Crash_rack { hosts; at } ->
      Format.fprintf ppf "crashrack:%s@%s" (String.concat "+" hosts) (secs at)

let pp_plan ppf plan =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
    pp_event ppf plan

(* {2 Parsing}

   One event per ';'-separated clause, times in (virtual) seconds:

     crash:ws2@4.5        reboot:ws2@9
     loss:0.02@2-10       partition@3-6        slow:ws1x4@0-20 *)

let parse_err fmt = Printf.ksprintf (fun m -> Error m) fmt

let float_of spec s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Ok f
  | None -> parse_err "fault %S: %S is not a number" spec s

let time_of spec s =
  Result.bind (float_of spec s) (fun t ->
      if t < 0. then
        parse_err "fault %S: time %g is negative (times count seconds from \
                   simulation start)"
          spec t
      else Ok (Time.of_sec t))

let span2 spec s =
  match String.split_on_char '-' (String.trim s) with
  | [ a; b ] ->
      Result.bind (float_of spec a) (fun start ->
          Result.bind (float_of spec b) (fun stop ->
              if start < 0. then
                parse_err "fault %S: window start %g is negative (times \
                           count seconds from simulation start)"
                  spec start
              else if stop < start then
                parse_err "fault %S: window %s runs backwards — stop %g \
                           must be after start %g"
                  spec s stop start
              else if stop = start then
                parse_err "fault %S: window %s is empty — stop %g must be \
                           strictly after start %g"
                  spec s stop start
              else Ok (Time.of_sec start, Time.of_sec stop)))
  | _ -> parse_err "fault %S: expected T1-T2, got %S" spec s

let parse_clause spec =
  let kind, arg =
    (* A clause is KIND:ARG, except 'partition@T1-T2' has no colon — split
       on whichever of ':' / '@' comes first. *)
    let cut i = (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1)) in
    match (String.index_opt spec ':', String.index_opt spec '@') with
    | Some i, Some j when j < i -> cut j
    | Some i, _ -> cut i
    | None, Some j -> cut j
    | None, None -> (spec, "")
  in
  let host_at verb k =
    match String.split_on_char '@' arg with
    | [ host; at ] when String.trim host <> "" ->
        Result.map (fun t -> k (String.trim host) t) (time_of spec at)
    | _ -> parse_err "fault %S: expected %s:HOST@T" spec verb
  in
  let host_window verb k =
    match String.split_on_char '@' arg with
    | [ host; w ] when String.trim host <> "" ->
        Result.map
          (fun (start, stop) -> k (String.trim host) start stop)
          (span2 spec w)
    | _ -> parse_err "fault %S: expected %s:HOST@T1-T2" spec verb
  in
  match String.trim kind with
  | "crash" -> host_at "crash" (fun host at -> Crash_host { host; at })
  | "reboot" -> host_at "reboot" (fun host at -> Reboot_host { host; at })
  | "loss" -> (
      match String.split_on_char '@' arg with
      | [ p; w ] ->
          Result.bind (float_of spec p) (fun p ->
              if p < 0. || p > 1. then
                parse_err "fault %S: loss probability %g out of [0,1]" spec p
              else
                Result.map
                  (fun (start, stop) -> Loss_window { p; start; stop })
                  (span2 spec w))
      | _ -> parse_err "fault %S: expected loss:P@T1-T2" spec)
  | "partition" -> (
      (* Both 'partition@T1-T2' and 'partition:T1-T2'. Only rewrite the
         error when the window's very shape is wrong — a well-shaped but
         invalid window (backwards, empty, negative) keeps span2's
         message, which says what to fix. *)
      match String.split_on_char '-' (String.trim arg) with
      | [ _; _ ] ->
          Result.map
            (fun (start, stop) -> Partition_bridge { start; stop })
            (span2 spec arg)
      | _ -> parse_err "fault %S: expected partition@T1-T2" spec)
  | "slow" -> (
      match String.split_on_char '@' arg with
      | [ hf; w ] -> (
          match String.rindex_opt hf 'x' with
          | Some i ->
              let host = String.trim (String.sub hf 0 i) in
              let f = String.sub hf (i + 1) (String.length hf - i - 1) in
              Result.bind (float_of spec f) (fun factor ->
                  if factor < 1. then
                    parse_err "fault %S: slowdown factor %g < 1 — the \
                               factor multiplies execution time, so it \
                               must be at least 1 (1 is nominal speed)"
                      spec factor
                  else if host = "" then
                    parse_err "fault %S: missing host" spec
                  else
                    Result.map
                      (fun (start, stop) ->
                        Slow_host { host; factor; start; stop })
                      (span2 spec w))
          | None -> parse_err "fault %S: expected slow:HOSTxF@T1-T2" spec)
      | _ -> parse_err "fault %S: expected slow:HOSTxF@T1-T2" spec)
  | "flaky" ->
      host_window "flaky" (fun host start stop ->
          Flaky_host { host; start; stop })
  | "crashrack" -> (
      match String.split_on_char '@' arg with
      | [ hs; at ] -> (
          let hosts = List.map String.trim (String.split_on_char '+' hs) in
          if List.exists (String.equal "") hosts then
            parse_err "fault %S: expected crashrack:HOST+HOST+...@T" spec
          else
            match hosts with
            | [] | [ _ ] ->
                parse_err "fault %S: a rack crash is correlated — name at \
                           least two hosts (use crash:HOST@T for one)"
                  spec
            | _ ->
                Result.map (fun at -> Crash_rack { hosts; at })
                  (time_of spec at))
      | _ -> parse_err "fault %S: expected crashrack:HOST+HOST+...@T" spec)
  | k -> parse_err "fault %S: unknown kind %S" spec k

let parse s =
  let clauses =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  if clauses = [] then Error "empty fault plan"
  else
    List.fold_left
      (fun acc c ->
        Result.bind acc (fun evs ->
            Result.map (fun e -> e :: evs) (parse_clause c)))
      (Ok []) clauses
    |> Result.map List.rev

(* {2 Installation}

   The plan is compiled onto the engine as ordinary scheduled events.
   Faults cannot depend on the cluster (the cluster depends on faults to
   accept a plan at creation), so each action is a callback the cluster
   wires to the right subsystem. *)

type hooks = {
  h_crash : string -> unit;
  h_reboot : string -> unit;
  h_loss : float -> unit;  (** Set the cluster-wide frame-loss probability. *)
  h_base_loss : unit -> float;
      (** The probability to restore when a loss window closes. *)
  h_partition : up:bool -> unit;
      (** Sever ([up:false]) or heal ([up:true]) the inter-segment bridge. *)
  h_slow : string -> float -> unit;
}

type t = {
  mutable injected : int;
  fired : (string, int ref) Hashtbl.t;  (** Actions fired, per kind. *)
}

let injected t = t.injected

let fired_counts t =
  List.filter_map
    (fun k ->
      match Hashtbl.find_opt t.fired k with
      | Some r -> Some (k, !r)
      | None -> None)
    all_kinds

(* Deterministic per-host churn stream for [Flaky_host]: a tiny LCG
   seeded from the host name alone, so the same plan produces the same
   churn regardless of cluster seed or installation order. *)
let churn_stream host =
  let state = ref (Hashtbl.hash (host, "flaky") land 0xffffff) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !state /. float_of_int 0x40000000

let install eng trc hooks plan =
  let t = { injected = 0; fired = Hashtbl.create 8 } in
  let fire kind fmt =
    Format.kasprintf
      (fun detail ->
        t.injected <- t.injected + 1;
        (match Hashtbl.find_opt t.fired kind with
        | Some r -> incr r
        | None -> Hashtbl.replace t.fired kind (ref 1));
        if Tracer.enabled trc then
          Tracer.emit trc (Fault_injected { kind; detail }))
      fmt
  in
  let at when_ f = Engine.post eng ~at:when_ f in
  List.iter
    (function
      | Crash_host { host; at = when_ } ->
          at when_ (fun () ->
              fire "crash" "%s" host;
              hooks.h_crash host)
      | Reboot_host { host; at = when_ } ->
          at when_ (fun () ->
              fire "reboot" "%s" host;
              hooks.h_reboot host)
      | Loss_window { p; start; stop } ->
          at start (fun () ->
              fire "loss" "window opens: p=%.4f" p;
              hooks.h_loss p);
          at stop (fun () ->
              let base = hooks.h_base_loss () in
              fire "loss" "window closes: p=%.4f" base;
              hooks.h_loss base)
      | Partition_bridge { start; stop } ->
          at start (fun () ->
              fire "partition" "bridge severed";
              hooks.h_partition ~up:false);
          at stop (fun () ->
              fire "partition" "bridge healed";
              hooks.h_partition ~up:true)
      | Slow_host { host; factor; start; stop } ->
          at start (fun () ->
              fire "slow" "%s x%.1f" host factor;
              hooks.h_slow host factor);
          at stop (fun () ->
              fire "slow" "%s ends" host;
              hooks.h_slow host 1.0)
      | Flaky_host { host; start; stop } ->
          (* Intermittent churn: crash/reboot cycles with seeded
             down-times of 300 ms–1.5 s and up-times of 500 ms–2.5 s,
             clipped to the window. Every crash is paired with a reboot
             no later than [stop], so the host always ends the window
             up. *)
          let next = churn_stream host in
          let cursor = ref start in
          while Time.(!cursor < stop) do
            let crash_t = !cursor in
            let down =
              Time.add (Time.of_ms 300.) (Time.scale (Time.of_ms 1200.) (next ()))
            in
            let reboot_t = Time.min (Time.add crash_t down) stop in
            at crash_t (fun () ->
                fire "flaky" "%s down" host;
                hooks.h_crash host);
            at reboot_t (fun () ->
                fire "flaky" "%s up" host;
                hooks.h_reboot host);
            let up =
              Time.add (Time.of_ms 500.) (Time.scale (Time.of_ms 2000.) (next ()))
            in
            cursor := Time.add reboot_t up
          done
      | Crash_rack { hosts; at = when_ } ->
          at when_ (fun () ->
              fire "crashrack" "%s" (String.concat "+" hosts);
              List.iter hooks.h_crash hosts))
    plan;
  t
