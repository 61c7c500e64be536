(* How fast this host runs right now. The probe is a fixed piece of work
   owned by the benchmark and shaped like the simulator's inner loop: a
   binary heap of timed closures, a hash table and short-lived lists.
   Neighbours on a shared machine slow it and the simulator alike, so a
   part's wall time scaled by [reference /. probe ()] reads in seconds of
   a host running at the probe's reference speed. Nothing in the probe
   depends on the code under test. *)

(* Seconds one probe takes on an unloaded 2.1 GHz x86-64 core. *)
let reference = 0.06

let work () =
  let n = 40_000 and steps = 200_000 in
  let keys = Array.make (n + 1) 0 and acts = Array.make (n + 1) ignore in
  let size = ref 0 in
  let swap i j =
    let k = keys.(i) and a = acts.(i) in
    keys.(i) <- keys.(j);
    acts.(i) <- acts.(j);
    keys.(j) <- k;
    acts.(j) <- a
  in
  let push k a =
    incr size;
    keys.(!size) <- k;
    acts.(!size) <- a;
    let i = ref !size in
    while !i > 1 && keys.(!i / 2) > keys.(!i) do
      swap !i (!i / 2);
      i := !i / 2
    done
  in
  let pop () =
    let k = keys.(1) and a = acts.(1) in
    swap 1 !size;
    decr size;
    let i = ref 1 and fin = ref false in
    while not !fin do
      let l = 2 * !i in
      let m = if l <= !size && keys.(l) < keys.(!i) then l else !i in
      let m = if l + 1 <= !size && keys.(l + 1) < keys.(m) then l + 1 else m in
      if m = !i then fin := true
      else begin
        swap !i m;
        i := m
      end
    done;
    (k, a)
  in
  let state = ref 1985 and hits = ref 0 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let table = Hashtbl.create 4096 in
  for _ = 1 to n / 2 do
    push (rand ()) ignore
  done;
  for _ = 1 to steps do
    let t, act = pop () in
    act ();
    let k = rand () land 0xffff in
    let seen = Option.value (Hashtbl.find_opt table k) ~default:[] in
    Hashtbl.replace table k (if List.length seen >= 4 then [ t ] else t :: seen);
    push (t + (rand () land 0xfff)) (fun () -> incr hits)
  done;
  Sys.opaque_identity !hits

(* Wall seconds for one probe. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (work ());
  Unix.gettimeofday () -. t0
