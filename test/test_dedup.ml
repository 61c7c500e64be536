(* Differential battery for content-addressed state transfer.

   The same pinned migration scenario runs under every (copy strategy x
   placement policy) pair, once with per-host content caches off (the
   default, byte-for-byte the pre-dedup simulator) and twice with a
   4 MiB cache per host. What dedup may change is *when* things happen
   and *how many bytes cross the wire* — never what the program
   computes or where the scheduler puts it. So per combination: the
   program's terminal output, completion count, CPU demand, the chosen
   migration endpoints, and the logical-host lifecycle stream (modulo
   sequence numbers and timestamps) must match the cache-off run;
   cached runs must be byte-identical per seed; the dedup monitor —
   which replays every manifest/hit/miss triple and checks that chunk
   counts, byte counts and digest sums partition exactly — must stay
   silent; and the stat counters must reconcile across hosts: the
   bytes the destination deduplicated are exactly the bytes the source
   never shipped.

   The QCheck half covers the primitives the battery leans on: digests
   are pure functions (equal across domains), and the LRU content
   cache tracks a reference model — never over budget, hits only for
   content whose recorded size matches, evictions strictly in
   least-recently-used order. *)

let sec = Time.of_sec
let cache_bytes = 4 * 1024 * 1024

let strategies =
  [
    ("precopy", Protocol.Precopy);
    ("freeze", Protocol.Freeze_and_copy);
    ("cor", Protocol.Copy_on_reference);
  ]

let placements =
  [
    ("flat", Config.Flat_multicast);
    ("pods", Config.Pod_sharded { pod_size = 2 });
    ("predictive", Config.Load_predictive { pod_size = 2; alpha = 0.3 });
  ]

let combos =
  List.concat_map
    (fun (sn, s) ->
      List.map (fun (pn, p) -> (sn ^ "/" ^ pn, s, p)) placements)
    strategies

let cfg ~placement ~cache =
  let base = { Config.default with Config.placement } in
  if not cache then base
  else
    {
      base with
      Config.os =
        { base.Config.os with Os_params.content_cache_bytes = cache_bytes };
    }

(* "cc68: done (6.123s)" -> "cc68: done" — dedup legitimately shifts
   completion instants (loads and copies finish sooner). *)
let strip_time line =
  match String.index_opt line '(' with
  | Some i -> String.trim (String.sub line 0 i)
  | None -> line

(* Drop the {"seq":..,"at_us":..} prefix of a JSONL event line — the
   rest (category, type, hosts, sizes) is the timing-independent part. *)
let modulo_timing jsonl =
  let strip line =
    let pat = "\"cat\"" in
    let n = String.length line and m = String.length pat in
    let rec go i =
      if i + m > n then line
      else if String.sub line i m = pat then String.sub line i (n - i)
      else go (i + 1)
    in
    go 0
  in
  List.map strip (String.split_on_char '\n' jsonl)

type run = {
  r_outcome : Protocol.migration_outcome;
  r_completions : int;
  r_cpu : Time.span;
  r_lines : string list;  (** Origin workstation's display. *)
  r_trace : string;  (** Full JSONL event stream. *)
  r_lh : string;  (** Logical-host lifecycle events only. *)
  r_xfer : string;  (** Manifest/hit/miss events only. *)
  r_img : string;  (** Image-cache events only. *)
  r_violations : Monitors.violation list;
  r_shipped : int;  (** Source side: manifest bytes actually sent. *)
  r_saved : int;  (** Source side: manifest bytes the need-reply skipped. *)
  r_deduped : int;  (** Scan side: manifest bytes found in the cache. *)
  r_manifest_bytes : int;
  r_hit : int;
  r_miss : int;
}

(* The pinned scenario: exec cc68 "[@ *]" from ws0 (the placement
   policy picks the host, the file server's chunk announcement warms
   every cache), migrate it mid-run with the given discipline (the
   policy picks the destination too), then wait for it. *)
let run_one ~cache ~strategy ~placement =
  let cl =
    Cluster.create ~seed:1985 ~workstations:4 ~trace:true
      ~cfg:(cfg ~placement ~cache) ()
  in
  Tracer.keep (Cluster.tracer cl);
  let mon = Monitors.attach (Cluster.tracer cl) in
  let eng = Cluster.engine cl in
  let outcome = ref None in
  let completions = ref 0 in
  let cpu = ref Time.zero in
  ignore
    (Cluster.shell cl ~ws:0 ~name:"shell" (fun ctx ->
         match Remote_exec.exec ctx ~prog:"cc68" ~target:Remote_exec.Any with
         | Error e -> Alcotest.failf "exec: %s" e
         | Ok h -> (
             Proc.sleep eng (sec 2.);
             (match
                Remote_exec.migrate_program ~strategy ~pm:h.Remote_exec.h_pm
                  ctx h
              with
             | Ok o ->
                 outcome := Some o
             | Error _ -> Alcotest.fail "migration failed");
             match Remote_exec.wait ctx h with
             | Ok (_, c) ->
                 cpu := c;
                 incr completions
             | Error e -> Alcotest.failf "wait: %s" e)));
  Cluster.run cl ~until:(sec 120.);
  let outcome =
    match !outcome with
    | Some o -> o
    | None -> Alcotest.fail "scenario never migrated"
  in
  let tr = Cluster.tracer cl in
  (* Kept, so the trace runs to the last event, not only the boot log. *)
  Alcotest.(check int) "trace reaches the last event" (Tracer.seq tr - 1)
    (match List.rev (Tracer.records tr) with r :: _ -> r.Tracer.seq | [] -> -1);
  {
    r_outcome = outcome;
    r_completions = !completions;
    r_cpu = !cpu;
    r_lines =
      Display_server.output (Cluster.workstation cl 0).Cluster.ws_display;
    r_trace = Tracer.to_jsonl tr;
    r_lh = Tracer.to_jsonl ~categories:[ "lh" ] tr;
    r_xfer = Tracer.to_jsonl ~categories:[ "xfer" ] tr;
    r_img = Tracer.to_jsonl ~categories:[ "img" ] tr;
    r_violations = Monitors.violations mon;
    r_shipped = Cluster.sum_stat cl Kernel.Xfer_bytes_shipped;
    r_saved = Cluster.sum_stat cl Kernel.Xfer_bytes_saved;
    r_deduped = Cluster.sum_stat cl Kernel.Xfer_bytes_deduped;
    r_manifest_bytes = Cluster.sum_stat cl Kernel.Xfer_manifest_bytes;
    r_hit = Cluster.sum_stat cl Kernel.Xfer_chunks_hit;
    r_miss = Cluster.sum_stat cl Kernel.Xfer_chunks_miss;
  }

(* One cache-off run (the baseline) and two cached runs (for the
   determinism check) per combination; computed once, shared across the
   cases. *)
let runs =
  lazy
    (List.map
       (fun (key, strategy, placement) ->
         ( key,
           ( run_one ~cache:false ~strategy ~placement,
             run_one ~cache:true ~strategy ~placement,
             run_one ~cache:true ~strategy ~placement ) ))
       combos)

let find key = List.assoc key (Lazy.force runs)
let is_cor key = String.length key >= 3 && String.sub key 0 3 = "cor"

(* {1 Differential: caching must not change what the run computes} *)

let test_output_parity key () =
  let off, on, _ = find key in
  Alcotest.(check (list string))
    "display output matches cache-off (modulo completion time)"
    (List.map strip_time off.r_lines)
    (List.map strip_time on.r_lines);
  Alcotest.(check int) "completed exactly once" off.r_completions
    on.r_completions;
  Alcotest.(check int) "same CPU demand (us)" (Time.to_us off.r_cpu)
    (Time.to_us on.r_cpu);
  Alcotest.(check string) "same migration source" off.r_outcome.Protocol.m_from
    on.r_outcome.Protocol.m_from;
  Alcotest.(check string) "same migration destination"
    off.r_outcome.Protocol.m_dest on.r_outcome.Protocol.m_dest;
  Alcotest.(check (list string))
    "same logical-host lifecycle (modulo timing)"
    (modulo_timing off.r_lh) (modulo_timing on.r_lh)

let test_deterministic key () =
  let _, on1, on2 = find key in
  Alcotest.(check bool) "same seed, byte-identical cached trace" true
    (String.equal on1.r_trace on2.r_trace)

(* {1 Accounting: exact bytes on the wire} *)

let test_cache_off_is_inert key () =
  let off, _, _ = find key in
  List.iter
    (fun (c, v) ->
      Alcotest.(check int) (Kernel.counter_name c ^ " stays zero") 0 v)
    [
      (Kernel.Xfer_bytes_shipped, off.r_shipped);
      (Kernel.Xfer_bytes_saved, off.r_saved);
      (Kernel.Xfer_bytes_deduped, off.r_deduped);
      (Kernel.Xfer_manifest_bytes, off.r_manifest_bytes);
      (Kernel.Xfer_chunks_hit, off.r_hit);
      (Kernel.Xfer_chunks_miss, off.r_miss);
    ];
  Alcotest.(check string) "no manifest events" "" (String.trim off.r_xfer);
  Alcotest.(check string) "no image-cache events" "" (String.trim off.r_img)

let test_accounting key () =
  let off, on, _ = find key in
  if String.trim on.r_xfer = "" then
    Alcotest.fail "cached run emitted no manifest events";
  if String.trim on.r_img = "" then
    Alcotest.fail "cached run emitted no image-cache events";
  if on.r_hit <= 0 then Alcotest.fail "cached run never deduplicated a chunk";
  if is_cor key then begin
    (* Copy-on-reference adds local fault-path scans with no
       source-side manifest exchange: the destination can dedup more
       than the source ever offered to save. *)
    if on.r_deduped < on.r_saved then
      Alcotest.failf "dest deduped %d bytes < source saved %d" on.r_deduped
        on.r_saved
  end
  else begin
    (* Every scan answers a manifest exchange, so the two sides of the
       wire must agree exactly: saved(source) = deduped(dest), and the
       bytes actually shipped are the manifest total minus that. *)
    Alcotest.(check int) "dest deduped == source saved" on.r_saved on.r_deduped;
    if on.r_saved <= 0 then
      Alcotest.fail "manifest exchange saved nothing — dedup never engaged";
    if on.r_manifest_bytes <= 0 then
      Alcotest.fail "manifest exchange cost no wire bytes";
    let plain =
      Protocol.precopied_bytes off.r_outcome + off.r_outcome.Protocol.m_final_bytes
    in
    if on.r_shipped >= plain then
      Alcotest.failf "cached migration shipped %d bytes, not fewer than the \
                      plain run's %d"
        on.r_shipped plain
  end

(* {1 Monitors: the dedup invariant holds, nothing else regresses} *)

let test_monitors key () =
  let off, on, _ = find key in
  let check_run what r =
    let dedup =
      List.filter (fun v -> v.Monitors.vi_monitor = "dedup") r.r_violations
    in
    if dedup <> [] then
      Alcotest.failf "%s: dedup monitor tripped: %s" what
        (String.concat "; "
           (List.map (fun v -> v.Monitors.vi_detail) dedup));
    if is_cor key then
      List.iter
        (fun v ->
          if v.Monitors.vi_monitor <> "residual" then
            Alcotest.failf "%s: unexpected %s violation: %s" what
              v.Monitors.vi_monitor v.Monitors.vi_detail)
        r.r_violations
    else
      Alcotest.(check int) (what ^ ": no violations") 0
        (List.length r.r_violations)
  in
  check_run "cache off" off;
  check_run "cache on" on

(* {1 QCheck: digest and cache primitives} *)

(* Digests are pure functions of their arguments: computing the same
   digest on the main domain and on two spawned domains must agree —
   the property the [-j] merge and cross-host manifest comparison rest
   on. *)
let prop_digest_deterministic =
  QCheck.Test.make ~name:"digests agree across domains" ~count:50
    QCheck.(
      quad (string_of_size (Gen.int_bound 24)) (int_bound 512) (int_bound 64)
        (int_bound 8))
    (fun (image, space, index, version) ->
      let compute () =
        ( Pagehash.image_chunk ~image ~index,
          Pagehash.private_page ~space ~index ~version,
          Pagehash.zero_page ~page_bytes:1024,
          Pagehash.string image )
      in
      let here = compute () in
      let d1 = Domain.spawn compute and d2 = Domain.spawn compute in
      let r1 = Domain.join d1 and r2 = Domain.join d2 in
      here = r1 && here = r2)

(* Reference LRU model: (digest, bytes) pairs in most- to
   least-recently-used order, mirroring [Content_cache]'s documented
   semantics — insert refreshes recency but keeps the original size,
   an insert whose size could not be stored (0, or over the budget)
   changes nothing, eviction drops from the LRU end until the sum fits,
   a probe miss inserts. *)
module Model = struct
  let sum m = List.fold_left (fun a (_, b) -> a + b) 0 m

  let evict budget m =
    let rec go m =
      if sum m <= budget then m
      else
        match List.rev m with
        | [] -> m
        | _ :: rest_rev -> go (List.rev rest_rev)
    in
    go m

  let insert budget m ~digest ~bytes =
    if bytes <= 0 || bytes > budget then m
    else
      match List.assoc_opt digest m with
      | Some b -> (digest, b) :: List.remove_assoc digest m
      | None -> evict budget ((digest, bytes) :: m)

  let probe budget m ~digest ~bytes =
    match List.assoc_opt digest m with
    | Some b -> (true, b, (digest, b) :: List.remove_assoc digest m)
    | None -> (false, 0, insert budget m ~digest ~bytes)
end

(* Entry sizes are a function of the digest, as in the simulator (a
   digest names fixed content, content has one size). *)
let bytes_of_digest d = 512 + (256 * (d mod 3))

type cache_op = Probe of int * int | Insert of int * int | Clear

let pp_cache_op = function
  | Probe (d, b) -> Printf.sprintf "probe %d/%d" d b
  | Insert (d, b) -> Printf.sprintf "insert %d/%d" d b
  | Clear -> "clear"

(* Budgets up to 128 KB hold a few hundred entries, so the slab grows
   past its first 64 slots and the index is rebuilt (a clear step comes
   about once in 380, so most runs fill the cache between clears). Digests come from
   three ranges: a small one (hits and refreshes), a wide one (growth
   and steady eviction), and multiples of 4096, which share their low
   12 bits and so one home cell in every index size the property
   reaches (long probe chains, backward-shift deletes). Sizes are
   mostly the digest's own, sometimes 0 or over the budget (never
   stored). *)
let cache_ops_gen =
  let open QCheck.Gen in
  int_range 1 128 >>= fun kb ->
  let budget = kb * 1024 in
  let digest =
    frequency
      [
        (3, int_bound 31);
        (4, int_bound 4095);
        (3, map (fun d -> d lsl 12) (int_bound 63));
      ]
  in
  let sized d =
    frequency
      [
        (18, return (bytes_of_digest d));
        (1, return 0);
        (1, return (budget + 1 + (d land 1023)));
      ]
  in
  let op =
    frequency
      [
        (240, digest >>= fun d -> map (fun b -> Probe (d, b)) (sized d));
        (140, digest >>= fun d -> map (fun b -> Insert (d, b)) (sized d));
        (1, return Clear);
      ]
  in
  map (fun ops -> (budget, ops)) (list_size (int_range 0 800) op)

let prop_cache_matches_model =
  QCheck.Test.make
    ~name:"LRU cache: budget bound, hit sizes, eviction order" ~count:300
    (QCheck.make
       ~shrink:(fun (budget, ops) ->
         QCheck.Iter.map (fun ops -> (budget, ops)) (QCheck.Shrink.list ops))
       ~print:(fun (budget, ops) ->
         Printf.sprintf "budget %d: %s" budget
           (String.concat "; " (List.map pp_cache_op ops)))
       cache_ops_gen)
    (fun (budget, ops) ->
      let c = Content_cache.create ~budget in
      let model = ref [] in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Probe (d, bytes) ->
                let hit = Content_cache.probe c ~digest:d ~bytes in
                let mhit, mbytes, m' = Model.probe budget !model ~digest:d ~bytes in
                model := m';
                (* A hit may only be served by an entry recorded with the
                   content's own byte count. *)
                hit = mhit && ((not hit) || mbytes = bytes_of_digest d)
            | Insert (d, bytes) ->
                Content_cache.insert c ~digest:d ~bytes;
                model := Model.insert budget !model ~digest:d ~bytes;
                true
            | Clear ->
                Content_cache.clear c;
                model := [];
                Content_cache.bytes c = 0
                && Content_cache.entries c = 0
                && Content_cache.digests c = []
          in
          step_ok
          && Content_cache.bytes c <= max 0 (Content_cache.budget c)
          && Content_cache.bytes c = Model.sum !model
          && Content_cache.entries c = List.length !model
          && Content_cache.digests c = List.map fst !model)
        ops)

let prop_disabled_cache_never_stores =
  QCheck.Test.make ~name:"budget 0 disables the cache" ~count:100
    QCheck.(small_list (int_bound 31))
    (fun ds ->
      let c = Content_cache.create ~budget:0 in
      List.for_all
        (fun d ->
          let hit = Content_cache.probe c ~digest:d ~bytes:(bytes_of_digest d) in
          (not hit) && Content_cache.bytes c = 0 && Content_cache.entries c = 0)
        ds)

(* {1 Allocation pins} *)

(* A warm cache at steady eviction — every probe a miss that evicts,
   every insert a refresh or a miss that evicts — allocates nothing:
   entries live in the slab, and the index is rebuilt only while the
   slab grows. The first pass grows the slab to the budget's working
   set; the second is measured. The count includes words allocated
   directly on the major heap, where a grown slab's arrays go, so a
   slab that leaks slots fails here as well. ([Gc.allocated_bytes]
   reads the minor count only as of the last minor collection.) *)
let words_allocated () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let test_cache_steady_state_allocation () =
  let c = Content_cache.create ~budget:(256 * 1024) in
  let ops = 100_000 in
  let pass () =
    for i = 1 to ops do
      let d = Pagehash.private_page ~space:1 ~index:(i land 8191) ~version:0 in
      ignore (Content_cache.probe c ~digest:d ~bytes:1024);
      Content_cache.insert c ~digest:(d lxor 1) ~bytes:1024
    done
  in
  pass ();
  let before = words_allocated () in
  pass ();
  let per_op = (words_allocated () -. before) /. float_of_int (2 * ops) in
  Alcotest.(check int) "cache full" 256 (Content_cache.entries c);
  if per_op >= 0.01 then
    Alcotest.failf "%.4f words allocated per probe/insert (bound 0.01)" per_op

(* A disabled cache (the default: every pods-scale kernel has one) is
   its record alone — no slab, no index. *)
let test_disabled_cache_allocation () =
  let before = Gc.minor_words () in
  let c = Sys.opaque_identity (Content_cache.create ~budget:0) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "disabled" false (Content_cache.enabled c);
  if words > 24. then
    Alcotest.failf "create ~budget:0 allocated %.0f minor words (bound 24)" words

let () =
  let case name = Alcotest.test_case name `Slow in
  let per_combo f = List.map (fun (key, _, _) -> case key (f key)) combos in
  let qcheck tests = List.map QCheck_alcotest.to_alcotest tests in
  Alcotest.run "dedup"
    [
      ("output parity", per_combo test_output_parity);
      ("determinism", per_combo test_deterministic);
      ("cache off is inert", per_combo test_cache_off_is_inert);
      ("accounting", per_combo test_accounting);
      ("monitors", per_combo test_monitors);
      ( "allocation",
        [
          Alcotest.test_case "warm cache at steady eviction" `Quick
            test_cache_steady_state_allocation;
          Alcotest.test_case "disabled cache" `Quick
            test_disabled_cache_allocation;
        ] );
      ( "properties",
        qcheck
          [
            prop_digest_deterministic;
            prop_cache_matches_model;
            prop_disabled_cache_never_stores;
          ] );
    ]
