module Summary = struct
  type t = {
    mutable rev_samples : float list;
    mutable n : int;
    mutable sum : float;
    mutable sum_sq : float;
    mutable lo : float;
    mutable hi : float;
    mutable sorted : float array option;
        (* cached sorted view; stale (None) after any [record] *)
  }

  let create () =
    {
      rev_samples = [];
      n = 0;
      sum = 0.;
      sum_sq = 0.;
      lo = infinity;
      hi = neg_infinity;
      sorted = None;
    }

  let record t x =
    t.rev_samples <- x :: t.rev_samples;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    if x < t.lo then t.lo <- x;
    if x > t.hi then t.hi <- x;
    t.sorted <- None

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n

  let stddev t =
    if t.n < 2 then nan
    else
      let m = mean t in
      let var = (t.sum_sq /. float_of_int t.n) -. (m *. m) in
      sqrt (Float.max 0. var)

  let min t = if t.n = 0 then nan else t.lo
  let max t = if t.n = 0 then nan else t.hi

  let sorted_samples t =
    match t.sorted with
    | Some a -> a
    | None ->
        let a = Array.of_list t.rev_samples in
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  let percentile t p =
    if t.n = 0 then nan
      (* The extremes (and any out-of-range [p]) never need the sorted
         view: [lo]/[hi] are maintained incrementally, and a single
         sample is every percentile of itself. *)
    else if t.n = 1 || p <= 0. then t.lo
    else if p >= 100. then t.hi
    else begin
      let a = sorted_samples t in
      let rank =
        int_of_float (Float.round (p /. 100. *. float_of_int (t.n - 1)))
      in
      a.(Stdlib.min (t.n - 1) (Stdlib.max 0 rank))
    end

  let samples t = List.rev t.rev_samples
end

module Gauge = struct
  (* The two floats live in an all-float record, stored unboxed: a mixed
     record would box each new value, and a CPU gauge is set twice per
     slice. *)
  type acc = { mutable level : float; mutable integral : float }

  type t = {
    engine : Engine.t;
    acc : acc; (* integral is level x seconds, up to [since] *)
    mutable since : Time.t; (* start of current level *)
    mutable origin : Time.t;
  }

  let create engine ~initial =
    let now = Engine.now engine in
    { engine; acc = { level = initial; integral = 0. }; since = now; origin = now }

  (* Seconds computed in place: [Time.to_sec] is not inlined across
     modules, so its result would come back boxed. Same value. *)
  let settle t =
    let now = Engine.now t.engine in
    let a = t.acc in
    a.integral <-
      a.integral
      +. (a.level *. (float_of_int (Time.to_us (Time.sub now t.since)) /. 1e6));
    t.since <- now

  let set t x =
    settle t;
    t.acc.level <- x

  let time_average t =
    settle t;
    let elapsed = Time.to_sec (Time.sub t.since t.origin) in
    if elapsed <= 0. then t.acc.level else t.acc.integral /. elapsed
end
