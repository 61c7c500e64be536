module Summary = struct
  (* Samples are stored flat, one word each, in chunks that are filled
     and never copied: the first holds [first_chunk] samples, each next
     one twice its predecessor up to [max_chunk]. A summary of a handful
     of samples stays small, and a large one allocates about one word
     per sample. The float accumulators live in an all-float record, so
     they too are stored unboxed. *)
  type acc = {
    mutable sum : float;
    mutable sum_sq : float;
    mutable lo : float;
    mutable hi : float;
  }

  type t = {
    mutable full : float array list; (* filled chunks, newest first *)
    mutable cur : float array; (* chunk being filled *)
    mutable fill : int; (* samples in [cur] *)
    mutable n : int;
    acc : acc;
    mutable sorted : float array option;
        (* cached sorted view; stale (None) after any [record] *)
  }

  let first_chunk = 8
  let max_chunk = 1024

  let create () =
    {
      full = [];
      cur = [||];
      fill = 0;
      n = 0;
      acc = { sum = 0.; sum_sq = 0.; lo = infinity; hi = neg_infinity };
      sorted = None;
    }

  let record t x =
    if t.fill = Array.length t.cur then begin
      if t.fill > 0 then t.full <- t.cur :: t.full;
      t.cur <-
        Array.make (Stdlib.min max_chunk (Stdlib.max first_chunk (2 * t.fill))) 0.;
      t.fill <- 0
    end;
    t.cur.(t.fill) <- x;
    t.fill <- t.fill + 1;
    t.n <- t.n + 1;
    let a = t.acc in
    a.sum <- a.sum +. x;
    a.sum_sq <- a.sum_sq +. (x *. x);
    if x < a.lo then a.lo <- x;
    if x > a.hi then a.hi <- x;
    t.sorted <- None

  let count t = t.n
  let mean t = if t.n = 0 then nan else t.acc.sum /. float_of_int t.n

  let stddev t =
    if t.n < 2 then nan
    else
      let m = mean t in
      let var = (t.acc.sum_sq /. float_of_int t.n) -. (m *. m) in
      sqrt (Float.max 0. var)

  let min t = if t.n = 0 then nan else t.acc.lo
  let max t = if t.n = 0 then nan else t.acc.hi

  (* Every sample, in recording order, in one fresh array. *)
  let to_array t =
    let a = Array.make t.n 0. in
    let pos = ref (t.n - t.fill) in
    Array.blit t.cur 0 a !pos t.fill;
    List.iter
      (fun c ->
        let len = Array.length c in
        pos := !pos - len;
        Array.blit c 0 a !pos len)
      t.full;
    a

  let sorted_samples t =
    match t.sorted with
    | Some a -> a
    | None ->
        (* Sorted from newest to oldest, as the sort has always seen
           them: [Array.sort] is not stable, so the order in which it
           meets equal keys (0. and -0.) decides which one a percentile
           returns. *)
        let a = to_array t in
        let last = t.n - 1 in
        for i = 0 to (t.n / 2) - 1 do
          let x = a.(i) in
          a.(i) <- a.(last - i);
          a.(last - i) <- x
        done;
        Array.sort Float.compare a;
        t.sorted <- Some a;
        a

  let percentile t p =
    if t.n = 0 then nan
      (* The extremes (and any out-of-range [p]) never need the sorted
         view: [lo]/[hi] are maintained incrementally, and a single
         sample is every percentile of itself. *)
    else if t.n = 1 || p <= 0. then t.acc.lo
    else if p >= 100. then t.acc.hi
    else begin
      let a = sorted_samples t in
      let rank =
        int_of_float (Float.round (p /. 100. *. float_of_int (t.n - 1)))
      in
      a.(Stdlib.min (t.n - 1) (Stdlib.max 0 rank))
    end

  let samples t = Array.to_list (to_array t)
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

  let settle t =
    let now = Engine.now t.engine in
    let a = t.acc in
    a.integral <-
      a.integral +. (a.level *. Time.to_sec (Time.sub now t.since));
    t.since <- now

  let set t x =
    settle t;
    t.acc.level <- x

  let time_average t =
    settle t;
    let elapsed = Time.to_sec (Time.sub t.since t.origin) in
    if elapsed <= 0. then t.acc.level else t.acc.integral /. elapsed
end
