(* Every metric the benchmark reports, with its unit and direction. The
   same lists are declared in BENCHMARK.json ([--check-manifest] holds
   the two in step). *)

type spec = { name : string; unit : string; better : [ `Lower | `Higher ] }

let m ?(better = `Lower) name unit = { name; unit; better }

(* What a user of the simulator sees: host time and memory to run a
   workload, and the workload's simulated service quality. setup_s and
   run_s are at the host-speed probe's reference speed (see main.ml). *)
let end_to_end =
  [
    m "setup_s" "s";
    m "run_s" "s";
    m "peak_heap_mb" "MB";
    m "latency_p50_ms" "ms";
    m "latency_p99_ms" "ms";
    m "wire_kb_per_op" "KB";
  ]

let per_layer =
  [
    m "sim.events" "count";
    m "sim.wall_setup_s" "s";
    m "sim.wall_run_s" "s";
    m "sim.probe_s" "s";
    m "sim.live_heap_mb" "MB";
    m "sim.ns_per_event" "ns";
    m "sim.minor_words_per_event" "words";
    m "sim.major_collections" "count";
    m "sim.trace_events" "count";
    m "sim.trace_overhead_frac" "frac";
    m "cluster.create_s" "s";
    m "cluster.faults_fired" "count" ~better:`Higher;
    m "net.frames_sent" "count";
    m "net.frames_delivered" "count";
    m "net.deliveries_per_frame" "ratio";
    m "net.frames_dropped" "count";
    m "net.mb_carried" "MB";
    m "vos.ipc_sends" "count";
    m "vos.group_sends" "count";
    m "vos.retransmissions" "count";
    m "vos.sends_failed" "count";
    m "vos.where_is" "count";
    m "vos.cpu_slices" "count";
    m "vos.page_faults" "count";
    m "vos.page_fault_serves" "count";
    m "vos.xfer_hit_ratio" "ratio" ~better:`Higher;
    m "vos.img_hit_ratio" "ratio" ~better:`Higher;
    m "vos.xfer_mb_saved" "MB" ~better:`Higher;
    m "services.fs_requests" "count";
    m "core.selections" "count";
    m "core.placement_timeouts" "count";
    m "core.select_p50_ms" "ms";
    m "core.select_p99_ms" "ms";
    m "core.migrations" "count";
    m "core.migration_aborts" "count";
    m "core.precopy_rounds_mean" "rounds";
    m "core.residue_kb_p50" "KB";
    m "core.freeze_p50_ms" "ms";
    m "core.freeze_p99_ms" "ms";
    m "core.balancer_surveys" "count";
    m "core.health_probes" "count";
    m "core.false_suspicions" "count";
    m "serve.queue_wait_p50_ms" "ms";
    m "serve.queue_wait_p99_ms" "ms";
    m "serve.submit_to_running_p99_ms" "ms";
    m "serve.mean_in_flight" "count";
    m "serve.cap_final" "count";
    m "serve.credit_sheds" "count";
    m "check.monitor_inspections" "count" ~better:`Higher;
    m "check.violations" "count";
    m "check.failed_frac" "frac";
    m "check.leaked_lh" "count";
    m "check.leaked_lh_mb" "MB";
  ]
  @ List.map (fun c -> m ("trace.host_share." ^ c) "frac") Tracing.categories

let better_name = function `Lower -> "lower" | `Higher -> "higher"
