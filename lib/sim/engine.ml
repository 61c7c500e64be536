(* Pooled, flat event queue with fixed-delay lanes.

   The hot loop of every simulation is schedule/fire, so both sides are
   engineered to avoid allocation and polymorphic dispatch:

   - Events live in a slot pool (parallel arrays: generation, action,
     cancelled flag) recycled through a free-list stack. [post] schedules
     without materializing a handle at all; [schedule] returns a 3-field
     handle whose generation counter makes a stale [cancel] — one issued
     against a slot that has since fired and been recycled — a safe
     no-op.

   - Most events are posted with one of a few fixed delays (a CPU
     quantum, a frame's delivery time, a copy's pace, a retransmit
     timer). An event whose delay [at - now] owns a lane is appended to
     that lane, a FIFO ring over parallel [int] arrays (time, sequence
     number, slot), and never enters the heap. The clock never goes back
     and sequence numbers only grow, so events posted with one delay
     arrive in (time, seq) order: each lane is already sorted.

   - Every other event goes to a flat binary min-heap over parallel
     [int] arrays keyed by (time in us, sequence number). Comparisons
     are immediate integer compares in a monomorphic loop — no closure
     calls, no boxed keys — and sift operations move the hole instead of
     swapping.

   [pick] takes the smaller (time, seq) of the heap top and the lane
   whose head is smallest ([best], kept up to date as lanes change), so
   events fire in exactly the order one heap would fire them. Lanes are
   learned at run time: a delay hashes to one of [lanes] lanes and
   claims it only while that lane is empty; a delay whose lane holds
   another delay goes to the heap. Which delays win a lane therefore
   changes speed, never order. The lane rings are allocated on first
   use, and while no lane holds an entry [pick] reads the heap alone.

   Cancellation stays O(1): a cancelled slot is detached lazily, when it
   reaches the front of the heap or of its lane, but its action is
   dropped eagerly so the closure (and whatever subsystem it closes
   over) is released at cancel time. A lane is released only when its
   last entry, live or dead, has left it. *)

let lanes = 8 (* [lane_of] keeps the top three bits of a hash *)

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable lane_fired : int; (* events fired from a lane *)
  mutable live_count : int;
      (* live (scheduled, neither cancelled nor fired) events — kept
         incrementally so [pending] is O(1) *)
  (* Event pool, indexed by slot. *)
  mutable p_gen : int array;
  mutable p_act : (unit -> unit) array;
  mutable p_dead : bool array; (* cancelled, awaiting lazy removal *)
  mutable free : int array; (* stack of free slot indices *)
  mutable free_len : int;
  mutable pool_cap : int;
  (* Flat binary min-heap on (time_us, seq); h_slot points into the pool. *)
  mutable h_time : int array;
  mutable h_seq : int array;
  mutable h_slot : int array;
  mutable h_len : int;
  (* Lanes, indexed by lane: the delay a non-empty lane holds, its ring
     (a power-of-two capacity, empty until first use), the ring index of
     its head and its entry count, dead entries included. [l_hd_time]
     and [l_hd_seq] copy the head's key, [max_int] for an empty lane, so
     finding the leading lane reads two flat arrays. *)
  l_delay : int array;
  l_time : int array array;
  l_seq : int array array;
  l_slot : int array array;
  l_head : int array;
  l_len : int array;
  l_hd_time : int array;
  l_hd_seq : int array;
  mutable live_lanes : int; (* lanes with at least one entry *)
  mutable best : int; (* the lane with the smallest head; -1 if none *)
  mutable src : int; (* where [pick]'s event sits: -1 the heap, or a lane *)
}

type handle = { owner : t; slot : int; gen : int }

let nop () = ()
let initial_cap = 16

let create () =
  {
    clock = Time.zero;
    next_seq = 0;
    fired = 0;
    lane_fired = 0;
    live_count = 0;
    p_gen = Array.make initial_cap 0;
    p_act = Array.make initial_cap nop;
    p_dead = Array.make initial_cap false;
    free = Array.init initial_cap (fun i -> initial_cap - 1 - i);
    free_len = initial_cap;
    pool_cap = initial_cap;
    h_time = Array.make initial_cap 0;
    h_seq = Array.make initial_cap 0;
    h_slot = Array.make initial_cap 0;
    h_len = 0;
    l_delay = Array.make lanes 0;
    l_time = Array.make lanes [||];
    l_seq = Array.make lanes [||];
    l_slot = Array.make lanes [||];
    l_head = Array.make lanes 0;
    l_len = Array.make lanes 0;
    l_hd_time = Array.make lanes max_int;
    l_hd_seq = Array.make lanes max_int;
    live_lanes = 0;
    best = -1;
    src = -1;
  }

let now t = t.clock

(* {2 Pool} *)

let grow_pool t =
  let cap = t.pool_cap in
  let ncap = 2 * cap in
  let g = Array.make ncap 0 in
  Array.blit t.p_gen 0 g 0 cap;
  let a = Array.make ncap nop in
  Array.blit t.p_act 0 a 0 cap;
  let d = Array.make ncap false in
  Array.blit t.p_dead 0 d 0 cap;
  t.p_gen <- g;
  t.p_act <- a;
  t.p_dead <- d;
  (* The free stack is empty when we grow; refill it with the new slots,
     descending so the lowest index pops first. *)
  let f = Array.make ncap 0 in
  for i = 0 to cap - 1 do
    f.(i) <- ncap - 1 - i
  done;
  t.free <- f;
  t.free_len <- cap;
  t.pool_cap <- ncap

let alloc_slot t =
  if t.free_len = 0 then grow_pool t;
  let i = t.free_len - 1 in
  t.free_len <- i;
  t.free.(i)

(* Recycle a slot: bump the generation (stale handles die here), drop
   the action so the closure is not retained, return to the free list. *)
let free_slot t slot =
  t.p_gen.(slot) <- t.p_gen.(slot) + 1;
  t.p_act.(slot) <- nop;
  t.p_dead.(slot) <- false;
  t.free.(t.free_len) <- slot;
  t.free_len <- t.free_len + 1

(* {2 Heap} *)

let heap_push t ~time ~seq ~slot =
  let cap = Array.length t.h_time in
  if t.h_len = cap then begin
    let ncap = 2 * cap in
    let ht = Array.make ncap 0 in
    Array.blit t.h_time 0 ht 0 cap;
    let hs = Array.make ncap 0 in
    Array.blit t.h_seq 0 hs 0 cap;
    let hl = Array.make ncap 0 in
    Array.blit t.h_slot 0 hl 0 cap;
    t.h_time <- ht;
    t.h_seq <- hs;
    t.h_slot <- hl
  end;
  let ht = t.h_time and hs = t.h_seq and hl = t.h_slot in
  (* Sift the hole up, moving entries down until the new key fits. *)
  let i = ref t.h_len in
  t.h_len <- t.h_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = ht.(p) in
    if pt > time || (pt = time && hs.(p) > seq) then begin
      ht.(!i) <- pt;
      hs.(!i) <- hs.(p);
      hl.(!i) <- hl.(p);
      i := p
    end
    else continue := false
  done;
  ht.(!i) <- time;
  hs.(!i) <- seq;
  hl.(!i) <- slot

(* Remove the minimum: move the last entry into the root hole and sift
   it down. *)
let heap_discard_min t =
  let n = t.h_len - 1 in
  t.h_len <- n;
  if n > 0 then begin
    let ht = t.h_time and hs = t.h_seq and hl = t.h_slot in
    let time = ht.(n) and seq = hs.(n) and slot = hl.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (ht.(r) < ht.(l) || (ht.(r) = ht.(l) && hs.(r) < hs.(l)))
          then r
          else l
        in
        if ht.(c) < time || (ht.(c) = time && hs.(c) < seq) then begin
          ht.(!i) <- ht.(c);
          hs.(!i) <- hs.(c);
          hl.(!i) <- hl.(c);
          i := c
        end
        else continue := false
      end
    done;
    ht.(!i) <- time;
    hs.(!i) <- seq;
    hl.(!i) <- slot
  end

(* {2 Lanes} *)

(* Fibonacci hashing: the top bits of [delay] times 2^63 / golden ratio. *)
let lane_of delay = (delay * 0x4F1BBCDCBFA53E0B) lsr 60

(* Double a full lane's ring (16 slots at first use), unwrapping it so
   its head is at index 0. *)
let grow_lane t l =
  let n = t.l_len.(l) in
  let ncap = Stdlib.max 16 (2 * n) in
  let h = t.l_head.(l) in
  let grown a =
    let b = Array.make ncap 0 in
    let tail = n - h in
    Array.blit a h b 0 tail;
    Array.blit a 0 b tail h;
    b
  in
  t.l_time.(l) <- grown t.l_time.(l);
  t.l_seq.(l) <- grown t.l_seq.(l);
  t.l_slot.(l) <- grown t.l_slot.(l);
  t.l_head.(l) <- 0

let lane_push t l ~time ~seq ~slot =
  let n = t.l_len.(l) in
  if n = Array.length t.l_time.(l) then grow_lane t l;
  let i = (t.l_head.(l) + n) land (Array.length t.l_time.(l) - 1) in
  t.l_time.(l).(i) <- time;
  t.l_seq.(l).(i) <- seq;
  t.l_slot.(l).(i) <- slot;
  t.l_len.(l) <- n + 1

(* The lane whose head is smallest on (time, seq); some lane must hold
   an entry (no entry has seq [max_int]). *)
let min_lane t =
  let ht = t.l_hd_time and hs = t.l_hd_seq in
  let best = ref 0 in
  for l = 1 to lanes - 1 do
    let b = !best in
    if ht.(l) < ht.(b) || (ht.(l) = ht.(b) && hs.(l) < hs.(b)) then best := l
  done;
  !best

(* Drop the head of lane [l], which is [best]. *)
let lane_pop t l =
  let n = t.l_len.(l) - 1 in
  t.l_len.(l) <- n;
  let h = (t.l_head.(l) + 1) land (Array.length t.l_time.(l) - 1) in
  t.l_head.(l) <- h;
  if n = 0 then begin
    t.live_lanes <- t.live_lanes - 1;
    t.l_hd_time.(l) <- max_int;
    t.l_hd_seq.(l) <- max_int
  end
  else begin
    t.l_hd_time.(l) <- t.l_time.(l).(h);
    t.l_hd_seq.(l) <- t.l_seq.(l).(h)
  end;
  (* The lane's new head can only be later; another lane may now lead. *)
  if t.live_lanes = 0 then t.best <- -1
  else if n = 0 || t.live_lanes > 1 then t.best <- min_lane t

(* {2 Scheduling} *)

let enqueue t ~at action =
  if Time.(at < t.clock) then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at %s < now %s" (Time.to_string at)
         (Time.to_string t.clock));
  let slot = alloc_slot t in
  t.p_act.(slot) <- action;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.live_count <- t.live_count + 1;
  let time = Time.to_us at in
  let delay = time - Time.to_us t.clock in
  let l = lane_of delay in
  if t.l_len.(l) = 0 then begin
    (* Claim the empty lane. Its one entry leads the lanes if it is
       earlier than the current leader's head (never equal on (time,
       seq): this seq is the newest). *)
    t.l_delay.(l) <- delay;
    lane_push t l ~time ~seq ~slot;
    t.l_hd_time.(l) <- time;
    t.l_hd_seq.(l) <- seq;
    t.live_lanes <- t.live_lanes + 1;
    let b = t.best in
    if b < 0 || time < t.l_hd_time.(b) then t.best <- l
  end
  else if t.l_delay.(l) = delay then lane_push t l ~time ~seq ~slot
  else heap_push t ~time ~seq ~slot;
  slot

let schedule t ~at action =
  let slot = enqueue t ~at action in
  { owner = t; slot; gen = t.p_gen.(slot) }

let schedule_after t d action = schedule t ~at:(Time.add t.clock d) action
let post t ~at action = ignore (enqueue t ~at action : int)
let post_after t d action = post t ~at:(Time.add t.clock d) action

let cancel h =
  let t = h.owner in
  (* The generation check makes a cancel through a recycled handle a
     no-op: firing or cancelling bumps the slot's generation. *)
  if t.p_gen.(h.slot) = h.gen && not t.p_dead.(h.slot) then begin
    t.p_dead.(h.slot) <- true;
    t.p_act.(h.slot) <- nop;
    t.live_count <- t.live_count - 1
  end

let pending t = t.live_count

(* {2 Firing} *)

(* The one pick path: the instant of the next live event, with where it
   sits left in [t.src], or -1 when no live event is queued. Dead
   entries met at the front of the heap or of the leading lane are
   dropped and their slots freed on the way. *)
let rec pick t =
  let b = t.best in
  if
    b >= 0
    && (t.h_len = 0
       || t.l_hd_time.(b) < t.h_time.(0)
       || (t.l_hd_time.(b) = t.h_time.(0) && t.l_hd_seq.(b) < t.h_seq.(0)))
  then begin
    let slot = t.l_slot.(b).(t.l_head.(b)) in
    if t.p_dead.(slot) then begin
      lane_pop t b;
      free_slot t slot;
      pick t
    end
    else begin
      t.src <- b;
      t.l_hd_time.(b)
    end
  end
  else if t.h_len = 0 then -1
  else begin
    let slot = t.h_slot.(0) in
    if t.p_dead.(slot) then begin
      heap_discard_min t;
      free_slot t slot;
      pick t
    end
    else begin
      t.src <- -1;
      t.h_time.(0)
    end
  end

(* Fire the event [pick] found, due at [time]. *)
let fire t time =
  let src = t.src in
  let slot =
    if src < 0 then begin
      let slot = t.h_slot.(0) in
      heap_discard_min t;
      slot
    end
    else begin
      let slot = t.l_slot.(src).(t.l_head.(src)) in
      lane_pop t src;
      t.lane_fired <- t.lane_fired + 1;
      slot
    end
  in
  let act = t.p_act.(slot) in
  (* Recycle before running: the generation bump makes a late [cancel]
     from inside (or after) the action a no-op rather than a double
     decrement. *)
  free_slot t slot;
  t.live_count <- t.live_count - 1;
  t.clock <- Time.of_us time;
  t.fired <- t.fired + 1;
  act ()

let step t =
  let time = pick t in
  if time < 0 then false
  else begin
    fire t time;
    true
  end

let run ?until ?max_steps t =
  let horizon = match until with None -> max_int | Some u -> Time.to_us u in
  let budget = match max_steps with None -> max_int | Some m -> m in
  let steps = ref 0 in
  let continue = ref true in
  while !continue do
    if !steps >= budget then continue := false
    else begin
      let time = pick t in
      if time < 0 || time > horizon then continue := false
      else begin
        fire t time;
        incr steps
      end
    end
  done;
  (* Leave the clock at the horizon so samplers observe a full window. *)
  match until with
  | Some u when Time.(t.clock < u) -> t.clock <- u
  | _ -> ()

let events_fired t = t.fired
let lane_fired t = t.lane_fired
