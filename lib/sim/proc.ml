type exit = Normal | Exn of exn | Killed

exception Killed_exn

type status_repr =
  | Embryo of Engine.handle
  | Running
  | Suspended of suspension
  | Done of exit

and suspension = {
  k : (unit, unit) Effect.Deep.continuation;
  mutable cleanup : unit -> unit;
}

type t = {
  pid : int;
  mutable state : status_repr;
  mutable doomed : bool;
  mutable paused : bool;
  mutable susp_gen : int;
      (* bumped when a suspension is consumed (woken or killed): a
         straggling wake-up from a source that lost the race — or from a
         timer that outlived the process — compares generations and
         becomes a no-op, replacing a per-suspend [woken] ref cell *)
  mutable deferred : (unit -> unit) option;
      (* wake-up (or embryo start) that arrived while paused *)
  mutable exit_hooks : (exit -> unit) list;
  mutable pending : (unit -> unit) -> unit -> unit;
      (* the register function of the suspension being entered, handed
         from [effc] to the process's handler *)
}

type _ Effect.t += Suspend : ((unit -> unit) -> (unit -> unit)) -> unit Effect.t

(* Domain-local pid counter: parallel replica domains must not race on
   it, and [reset_ids] (per cluster) keeps pid sequences identical
   across domain placements. *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_ids () = Domain.DLS.get counter := 0

let alive p = match p.state with Done _ -> false | _ -> true

let status p = match p.state with Done e -> Some e | _ -> None

let finish p e =
  p.state <- Done e;
  p.deferred <- None;
  let hooks = List.rev p.exit_hooks in
  p.exit_hooks <- [];
  List.iter (fun h -> h e) hooks

let nop () = ()
let no_register _ = nop

let spawn engine body =
  let counter = Domain.DLS.get counter in
  incr counter;
  let p =
    {
      pid = !counter;
      state = Running;
      doomed = false;
      paused = false;
      susp_gen = 0;
      deferred = None;
      exit_hooks = [];
      pending = no_register;
    }
  in
  (* Built once per process: [effc] stashes the suspension's register
     function in [p.pending] and returns this handler, so entering a
     suspension allocates no handler closure. *)
  let on_suspend =
    Some
      (fun (k : (unit, unit) Effect.Deep.continuation) ->
        let register = p.pending in
        p.pending <- no_register;
        if p.doomed then Effect.Deep.discontinue k Killed_exn
        else begin
          (* A process has at most one outstanding suspension, so one
             generation counter on [p] replaces the per-suspend [woken]
             and [cleanup] ref cells: a wake-up whose generation no
             longer matches is stale. *)
          let gen = p.susp_gen in
          let rec wake () =
            if p.susp_gen = gen then begin
              if p.paused then p.deferred <- Some wake
              else begin
                p.susp_gen <- gen + 1;
                match p.state with
                | Suspended _ ->
                    p.state <- Running;
                    Effect.Deep.continue k ()
                | Embryo _ | Running | Done _ -> ()
              end
            end
          in
          let s = { k; cleanup = nop } in
          p.state <- Suspended s;
          s.cleanup <- register wake
        end)
  in
  let rec start () =
    if alive p then begin
      if p.paused then p.deferred <- Some start
      else begin
        p.state <- Running;
        let open Effect.Deep in
        match_with body ()
          {
            retc = (fun () -> finish p Normal);
            exnc =
              (fun e ->
                match e with Killed_exn -> finish p Killed | e -> finish p (Exn e));
            effc =
              (fun (type a) (eff : a Effect.t) :
                   ((a, unit) continuation -> unit) option ->
                match eff with
                | Suspend register ->
                    p.pending <- register;
                    on_suspend
                | _ -> None);
          }
      end
    end
  in
  let h = Engine.schedule_after engine Time.zero start in
  p.state <- Embryo h;
  p

let kill p =
  match p.state with
  | Done _ -> ()
  | Embryo h ->
      Engine.cancel h;
      finish p Killed
  | Suspended s ->
      (* Consume the suspension before discontinuing so a wake-up source
         that still holds a reference (e.g. a sleep timer yet to fire)
         sees a stale generation and does nothing. *)
      p.susp_gen <- p.susp_gen + 1;
      s.cleanup ();
      p.state <- Running;
      Effect.Deep.discontinue s.k Killed_exn
  | Running -> p.doomed <- true

let pause p = if alive p then p.paused <- true

let unpause p =
  if p.paused then begin
    p.paused <- false;
    match p.deferred with
    | None -> ()
    | Some wake ->
        p.deferred <- None;
        wake ()
  end

let on_exit p hook =
  match p.state with
  | Done e -> hook e
  | _ -> p.exit_hooks <- hook :: p.exit_hooks

let suspend register = Effect.perform (Suspend register)

(* The timer is posted handle-free: a sleep that outlives its process
   (the process was killed) fires as a stale wake-up, which the
   generation check turns into a no-op — cheaper than materializing a
   cancellable handle for every sleep just for that rare case. *)
let sleep engine span =
  suspend (fun wake ->
      Engine.post_after engine span wake;
      nop)

let join p =
  match p.state with
  | Done e -> e
  | _ ->
      let result = ref Normal in
      suspend (fun wake ->
          let hook e =
            result := e;
            wake ()
          in
          p.exit_hooks <- hook :: p.exit_hooks;
          fun () -> p.exit_hooks <- List.filter (fun h -> h != hook) p.exit_hooks);
      !result
