(** Parallel execution of independent replica jobs on OCaml 5 domains.

    Every evaluation sweep in this repo is share-nothing per replica: a
    job builds its own deterministic cluster (engine, network, RNG) and
    returns a value, so N jobs fan out across cores with no coordination
    beyond a work queue. Results are merged in {e job-index order}, and
    all cross-domain simulator state is domain-local (see
    [Proc.reset_ids]), so [jobs:1] and [jobs:8] produce byte-identical
    merged results.

    No external dependencies: a fixed-size pool of plain [Domain]s over
    per-worker work-stealing deques (owner pops the front, idle workers
    steal the tail), dealt round-robin in submitted order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when
    [?jobs] is omitted. *)

val run : ?jobs:int -> (unit -> 'a) list -> 'a list
(** [run ~jobs thunks] executes every thunk, at most [jobs] at a time
    (each on its own domain; the calling domain participates), and
    returns the results in the same order as [thunks], byte-identical
    for any [jobs].

    Exception policy: every job runs to completion regardless of other
    jobs' failures; afterwards, if any job raised, the exception of the
    {e lowest-index} failing job is re-raised (with its backtrace) — so
    which exception escapes does not depend on [jobs]. [jobs <= 1], an
    empty list, and a single thunk all run inline on the calling
    domain. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [run ~jobs (List.map (fun x () -> f x) xs)]. *)
