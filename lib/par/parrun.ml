let default_jobs () = Domain.recommended_domain_count ()

type 'a outcome =
  | Pending
  | Done of 'a
  | Raised of exn * Printexc.raw_backtrace

let run_thunk thunk =
  match thunk () with
  | v -> Done v
  | exception e -> Raised (e, Printexc.get_raw_backtrace ())

(* Merge in index order; re-raise the lowest-index failure so the
   escaping exception is independent of the worker count. *)
let collect results =
  Array.iter
    (function
      | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
      | Done _ | Pending -> ())
    results;
  Array.to_list
    (Array.map
       (function
         | Done v -> v
         | Pending | Raised _ -> assert false)
       results)

(* {2 Work-stealing deques}

   One deque of job indices per worker. The owner pops from the front of
   its own deque; an idle worker steals from the {e tail} of a victim's,
   so owner and thief contend on opposite ends. Jobs are heavyweight
   (whole cluster simulations, milliseconds to minutes each), so a
   mutex per deque — rather than a lock-free Chase-Lev — is noise; what
   matters is that no domain sits idle while another still has a queue.

   Indices are dealt round-robin in submitted order, and stealing alone
   levels the load.

   None of this affects results: outcomes land in [results.(i)] by job
   index and [collect] merges in index order, so the merged output is
   byte-identical for any worker count or steal interleaving. *)

type deque = {
  mu : Mutex.t;
  mutable items : int array; (* circular buffer of job indices *)
  mutable head : int; (* next owner pop *)
  mutable len : int;
}

let deque_of_list idxs =
  let items = Array.of_list idxs in
  { mu = Mutex.create (); items; head = 0; len = Array.length items }

(* Owner and thief take from opposite ends so a stolen job is the one
   the owner would have reached last. *)
let take_front d =
  Mutex.lock d.mu;
  let r =
    if d.len = 0 then -1
    else begin
      let i = d.items.(d.head mod Array.length d.items) in
      d.head <- d.head + 1;
      d.len <- d.len - 1;
      i
    end
  in
  Mutex.unlock d.mu;
  r

let steal_back d =
  Mutex.lock d.mu;
  let r =
    if d.len = 0 then -1
    else begin
      d.len <- d.len - 1;
      d.items.((d.head + d.len) mod Array.length d.items)
    end
  in
  Mutex.unlock d.mu;
  r

let run ?jobs thunks =
  let thunks = Array.of_list thunks in
  let n = Array.length thunks in
  let pool =
    Stdlib.max 1 (match jobs with Some j -> j | None -> default_jobs ())
  in
  let workers = Stdlib.min pool n in
  if n = 0 then []
  else if workers <= 1 then collect (Array.map run_thunk thunks)
  else begin
    let results = Array.make n Pending in
    let per_worker = Array.make workers [] in
    for i = 0 to n - 1 do
      per_worker.(i mod workers) <- i :: per_worker.(i mod workers)
    done;
    let deques =
      Array.map (fun idxs -> deque_of_list (List.rev idxs)) per_worker
    in
    let worker w =
      let rec next_job () =
        let own = take_front deques.(w) in
        if own >= 0 then own else steal (w + 1) workers
      and steal v tries =
        if tries = 0 then -1
        else
          let got = steal_back deques.(v mod workers) in
          if got >= 0 then got else steal (v + 1) (tries - 1)
      in
      let rec loop () =
        let i = next_job () in
        if i >= 0 then begin
          results.(i) <- run_thunk thunks.(i);
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init (workers - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    (* The calling domain is the pool's worker 0. *)
    worker 0;
    Array.iter Domain.join spawned;
    (* [Domain.join] establishes happens-before for every [results]
       write made by the spawned domains. *)
    collect results
  end

let map ?jobs f xs = run ?jobs (List.map (fun x () -> f x) xs)
