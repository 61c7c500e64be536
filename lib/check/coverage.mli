(** What monitored runs exercised, as one value.

    Each {!Scenario} run returns its own {!t} ([o_coverage],
    [so_coverage]): the fault kinds its plan declared and fired, the
    events each monitor inspected, the library entry it came from, the
    migration strategies it started, the placement policy it selected
    through, and the trace-event kinds it emitted. {!union} adds runs
    together; a {!contract} says what a green sweep must have covered
    and {!gaps} lists what it missed. The fuzz driver ({!Fuzz}) adds
    only the library entry's feature verdicts ({!with_features}). *)

type counts = (string * int) list
(** Name → count; order carries no meaning, a missing name counts 0. *)

type t = {
  declared : string list;  (** Fault kinds some run's plan declared. *)
  fired : counts;  (** Fault kinds that fired. *)
  monitors : counts;  (** Events each monitor inspected. *)
  scenarios : counts;  (** Runs per library entry. *)
  strategies : counts;
      (** Migrations started ([Mig_start] events) per
          {!Protocol.strategy_name}. *)
  placements : counts;
      (** Serve runs per placement policy ({!Placement.name}) that
          committed at least one selection; plain runs count none. *)
  events : counts;
      (** Trace events per "category/type", rendered through the
          registered views. *)
  features : (string * (int * int)) list;
      (** Feature → (runs declaring it, runs where it materialized). *)
}

val empty : t
val union : t -> t -> t

val count : counts -> string -> int
(** The count for a name, 0 when absent. *)

val with_features : (string * bool) list -> t -> t
(** One run's feature verdicts (name, materialized) recorded as
    [(1, 0 or 1)] each, replacing the run's [features]. *)

(** {1 Collecting one run} *)

type census
(** A run in progress: its cluster, its monitor bundle and a trace
    subscriber counting event kinds and migration starts. *)

val attach : Cluster.t -> Monitors.t -> census
(** Subscribe the census to the cluster's tracer. Costs one hash lookup
    per event, keyed by extension-constructor id. *)

val of_run :
  census -> scenario:string option -> plan:Faults.plan ->
  placement:Placement.t option -> t
(** The run's coverage so far: [scenario] is its library entry (if
    any), [plan] its fault plan, and [placement] the policy a serve run
    dispatched through ([None] for plain runs). [features] is empty. *)

(** {1 The contract} *)

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

val report : contract -> t -> string list
(** The coverage report lines of a sweep: scenario (library contract
    only), fault, monitor, strategy, placement (when any), dedup,
    feature (library contract only) and trace coverage. *)
