(** The seeded fuzz driver behind [vsim fuzz].

    Each seed expands to a full random scenario — free-form
    ({!Scenario.of_seed}, {!Scenario.serve_of_seed}) or drawn
    round-robin from the {!Scenario.Library} — and runs under the
    {!Monitors} bundle. One loop serves both shapes (plain job batches
    and serve sustained-load sessions): a shape only supplies the
    function that runs one seed into a uniform {!trial}; the verbose
    single-seed replay and the aggregate sweep share the rest, including
    the {!Coverage} aggregate a green run must also satisfy. *)

(** {1 Coverage} *)

module Coverage : sig
  type counts = (string * int) list
  (** Name → count; order carries no meaning, a missing name counts 0. *)

  type t = {
    declared : string list;  (** Fault kinds some run's plan declared. *)
    fired : counts;  (** Fault kinds that fired. *)
    monitors : counts;  (** Events each monitor inspected. *)
    scenarios : counts;  (** Runs per library entry. *)
    strategies : counts;  (** Migrations started per strategy. *)
    placements : counts;  (** Serve runs per placement policy. *)
    events : counts;  (** Trace events per "category/type". *)
    features : (string * (int * int)) list;
        (** Feature → (runs declaring it, runs where it materialized). *)
  }
  (** What a set of runs exercised. *)

  val empty : t
  val union : t -> t -> t

  type contract =
    | Free_form
        (** Every declared fault kind fired and every monitor but
            [dedup] inspected an event (caching is not promised). *)
    | Library of {
        scenarios : string list;  (** Every sampled entry ran. *)
        strategies : string list;  (** Every promised strategy started. *)
        features : string list;  (** Every declared feature materialized. *)
        placements : string list;
            (** Every placement policy dispatched a selection (serve). *)
      }
        (** The free-form contract with [dedup] included, plus the
            sampled entries' promises and at least one content-addressed
            transfer manifest. *)

  type gap =
    | Fault_never_fired of string
    | Monitor_idle of string
    | Scenario_never_ran of string
    | Strategy_never_started of string
    | Feature_never_materialized of string
    | Placement_never_dispatched of string
    | No_manifest

  val gaps : contract -> t -> gap list
  (** Every promise of the contract the aggregate misses, in report
      order; [[]] is a pass. *)

  val gap_line : gap -> string
  (** The [COVERAGE FAIL: ...] line. *)
end

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
