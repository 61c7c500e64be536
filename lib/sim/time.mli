(** Simulated time.

    All simulation clocks count integer microseconds since the start of the
    run. Using integers keeps event ordering exact and runs reproducible;
    the finest-grained cost in the paper is the 13 microsecond frozen-test
    overhead (Section 4.1), so microsecond resolution loses nothing. *)

type t
(** An absolute instant, in microseconds since simulation start. *)

type span = t
(** A duration. Spans and instants share a representation; the type alias
    documents intent at use sites. *)

val zero : t
(** The simulation epoch. *)

val of_us : int -> t
(** [of_us n] is the instant/duration of [n] microseconds. *)

val of_ms : float -> t
(** [of_ms x] is [x] milliseconds, rounded to the nearest microsecond. *)

val of_sec : float -> t
(** [of_sec x] is [x] seconds, rounded to the nearest microsecond. *)

val to_us : t -> int
(** Microsecond count. *)

val to_ms : t -> float
(** Millisecond count (exact up to float precision). *)

val to_sec : t -> float
(** Second count. *)

val add : t -> span -> t
(** [add t d] is the instant [d] after [t]. *)

val sub : t -> t -> span
(** [sub a b] is the span from [b] to [a] (may be negative). *)

val mul : span -> int -> span
(** [mul d k] is [d] repeated [k] times. *)

val scale : span -> float -> span
(** [scale d x] is [d] scaled by [x], rounded to the nearest microsecond
    and saturating at the representable range (NaN maps to 0) — so an
    exploding multiplier, e.g. an uncapped exponential backoff, yields
    a huge span rather than an undefined negative one. *)

val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable rendering, e.g. ["13us"], ["210ms"], ["3.000s"]. *)

val to_string : t -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)
