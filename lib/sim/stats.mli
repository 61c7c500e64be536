(** Measurement collection.

    Small, allocation-light accumulators used by the cluster metrics layer
    and the benchmark harness: sample summaries with percentiles, and
    time-weighted gauges (for utilization-style metrics where the value of
    a quantity must be integrated over virtual time). *)

(** Scalar sample sets: mean/stddev/min/max and exact percentiles.
    Stores all samples; experiments record at most a few thousand. *)
module Summary : sig
  type t

  val create : unit -> t
  val record : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,100\]]; nearest-rank on the sorted
      samples. Total on its edge cases: empty returns [nan] (like the
      other accessors), a single sample is every percentile of itself,
      and [p] outside [\[0,100\]] clamps to {!min}/{!max}. *)

  val samples : t -> float list
  (** All recorded samples in recording order. *)
end

(** Piecewise-constant signals integrated over virtual time, e.g. number
    of busy workstations. *)
module Gauge : sig
  type t

  val create : Engine.t -> initial:float -> t

  val set : t -> float -> unit
  (** Record a new level starting at the current virtual instant. *)

  val time_average : t -> float
  (** Level averaged over virtual time from creation to now. *)
end
