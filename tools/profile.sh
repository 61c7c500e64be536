#!/bin/sh
# Profile the simulator hot paths on a box with no system profiler.
#
# The usual tools are unavailable here: no perf, no valgrind/callgrind,
# no gdb, and OCaml 5 dropped gprof support ("Profiling with gprof is
# only supported up to OCaml 4.08.0"), so ocamlopt -p is out too. What
# works everywhere:
#
#   0. `bench --sample CELL...` — a sampling profiler (tools/sampler.ml)
#      linked into the bench program. A SIGPROF timer fires every
#      millisecond of CPU time and its handler records
#      Printexc.get_callstack; after each named cell it prints the top
#      self and inclusive frames and the self time summed by module and
#      by layer. It runs at -j 1 (other domains are not sampled).
#      C primitives such as caml_hash and compare, and the minor GC,
#      have no OCaml frame: their time is charged to the OCaml function
#      that called them. The tree builds in dune's release profile
#      (dune-workspace), without -opaque, so a function that ocamlopt
#      inlined across modules (Time.to_sec, Engine.now, a table's bucket
#      index) has no frame either: its samples land on the caller. A
#      simulated process runs on its own effect stack, so its samples
#      stop at the process body and do not include the engine frames
#      below it.
#   1. `tools/sample_workload.exe WORKLOAD [PARTS]` runs the same sampler
#      around a benchmark workload's parts, built from benchmark/'s own
#      source. It first prints the events fired and the share that went
#      through the engine's fixed-delay lanes instead of its heap. Its
#      "self by layer" rows (engine, proc, cpu, kernel, net,
#      services, placement, programs, serve, check, cluster, other) say
#      where a real run's wall-clock goes: attribute a regression to a
#      layer before reading code.
#   2. `bench alloc`   — minor words allocated per event on each fast
#      path. A fast path that starts allocating shows up here long
#      before wall-clock noise would convict it.
#   3. `bench engine-core` — raw dispatch throughput, burst and
#      steady-state shapes.
#   4. OCAMLRUNPARAM=v=0x400 — GC stats on exit (minor/major collections,
#      words promoted). Compare before/after a change.
#
# Wall-clock on this class of machine is noisy (±20-30% run to run on
# sub-second cells); run each measurement 3+ times and compare minima.

set -e
cd "$(dirname "$0")/.."

dune build bench/main.exe tools/sample_workload.exe 2>/dev/null

for w in paper-pool pods-scale migrate-churn fuzz-monitored; do
  echo "=== sampled layers, modules and frames of the $w benchmark workload ==="
  ./_build/default/tools/sample_workload.exe "$w" 3
  echo
done

echo "=== allocation per event ==="
./_build/default/bench/main.exe alloc | grep words/event

echo
echo "=== raw dispatch throughput ==="
./_build/default/bench/main.exe engine-core | grep events/s

echo
echo "=== content-addressed transfer (dedup on vs off, byte counts) ==="
# Virtual-time/byte-count cell, so the numbers are exact, not noisy:
# watch the wire-byte reduction and the cached return-migration cost.
./_build/default/bench/main.exe dedup -j 1 | grep -E "bytes on wire|return"

echo
echo "=== sampled hot frames of the 1024-workstation serve-pods cell ==="
./_build/default/bench/main.exe --sample --quick serve-pods | sed -n '/--- sample/,$p'

echo
echo "=== GC totals for the pinned --quick profile ==="
OCAMLRUNPARAM=v=0x400 ./_build/default/bench/main.exe --quick -j 1 \
  >/dev/null 2>/tmp/vsim_gc_stats.$$ || true
grep -E "minor_collections|major_collections|minor_words|promoted" \
  /tmp/vsim_gc_stats.$$ || cat /tmp/vsim_gc_stats.$$
rm -f /tmp/vsim_gc_stats.$$
