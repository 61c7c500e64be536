(** The seeded fuzz driver behind [vsim fuzz].

    Each seed expands to a full random scenario — free-form
    ({!Scenario.of_seed}, {!Scenario.serve_of_seed}) or drawn
    round-robin from the {!Scenario.Library} — and runs under the
    {!Monitors} bundle. One loop serves both shapes (plain job batches
    and serve sustained-load sessions): a shape only supplies the
    function that runs one seed into a uniform {!trial}; the verbose
    single-seed replay and the aggregate sweep share the rest, including
    the {!Coverage} aggregate a green run must also satisfy. Each run
    returns its own {!Coverage.t}; the driver adds only the library
    entry's feature verdicts and unions the runs. *)

(** {1 Running seeds} *)

type shape = Plain | Serve

type trial = {
  description : string;
      (** The scenario as it ran (a serve placement override included),
          for [FAIL] lines. *)
  details : string list;  (** The verbose single-seed report lines. *)
  replay : string;  (** The [vsim fuzz ...] line that reproduces it. *)
  violations : Monitors.violation list;
  dropped : int;  (** Violations beyond the retained ones. *)
  events : int;
  stuck : int;  (** Serve requests in no terminal state; 0 in plain. *)
  shed : int;  (** Serve submissions shed by brownout; 0 in plain. *)
  coverage : Coverage.t;  (** This run's coverage alone. *)
}

type report = {
  shape : shape;
  verbose : bool;  (** A single [--seed] replay. *)
  contract : Coverage.contract;
  trials : trial list;  (** In seed order. *)
  coverage : Coverage.t;  (** The union over [trials]. *)
}

val run :
  jobs:int -> count:int -> base_seed:int -> Replay.t -> (report, string) result
(** With [r_seed] set, that one seed (verbose); otherwise seeds
    [base_seed .. base_seed + count - 1] fanned over [jobs] domains and
    merged in seed order. [Error] names an unknown [--scenario]. *)

val name : shape -> string
(** ["fuzz"] or ["fuzz --serve"]: the prefix of summary lines. *)

val render : require_coverage:bool -> report -> string list * bool
(** The report's stdout lines and whether the run passed. A verbose
    replay prints its details and every violation in full; a sweep
    prints one [FAIL] block per failed seed, the coverage report and —
    with [require_coverage] — the contract's gaps, which fail the run. *)
