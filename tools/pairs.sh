#!/usr/bin/env bash
# Compare two checkouts on one benchmark workload in alternating pairs:
#
#   tools/pairs.sh BASE_DIR CHANGE_DIR WORKLOAD N [SEED]
#
# Each pair runs `bash benchmark/run.sh` once in BASE_DIR and once in
# CHANGE_DIR (run.sh builds each tree from its own source first), with
# --workload WORKLOAD --seed SEED (default 1985) --seconds RUN_SECONDS
# --trace 0. RUN_SECONDS (environment) defaults to the run_seconds of
# CHANGE_DIR/BENCHMARK.json, the length the benchmark is judged at: a
# peak heap that grows with the parts a run completes reads differently
# in a shorter run. Odd pairs run the base first, even
# pairs the change, so a slow spell of a shared host or a warm cache does
# not land on one side only.
#
# For every end-to-end metric of CHANGE_DIR/BENCHMARK.json it prints the
# median and the quartiles on each side, and how many pairs the change
# won, lost or tied in the metric's better direction. A gain holds when
# the change wins at least 9 of every 10 pairs and its median beats the
# base median by more than the base's interquartile range. The verdict
# column applies the metric's no-regression bound from BENCHMARK.json
# (a fraction of the base median): WORSE when the change median is
# worse than the base median by more than the bound; otherwise
# unresolved when the base interquartile range exceeds the bound, so
# the runs spread too widely to tell, unless every change run beats
# every base run; otherwise ok. It also
# prints each side's failed-operation total and checks that both sides
# print the same sim_digest. A run that exits non-zero or prints no
# result line is named on stderr with its pair, side, exit code and
# .err file, kept out of the results (so its pair wins nothing), and
# counted in a "runs failed" line. Raw result lines go to OUT_DIR
# (environment, default a fresh mktemp directory).
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
  echo "usage: $0 BASE_DIR CHANGE_DIR WORKLOAD N [SEED]" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
seed=${5:-1985}
manifest_seconds=$(grep -o '"run_seconds": *[0-9.]*' "$change/BENCHMARK.json" |
  grep -o '[0-9.]*$' || true)
seconds=${RUN_SECONDS:-$manifest_seconds}
if [ -z "$seconds" ]; then
  echo "$0: no run_seconds in $change/BENCHMARK.json; set RUN_SECONDS" >&2
  exit 2
fi
out=${OUT_DIR:-$(mktemp -d)}
mkdir -p "$out"

run() { # DIR SIDE PAIR
  local log="$out/$2.$3.out" err="$out/$2.$3.err" code=0
  (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0) >"$log" 2>"$err" || code=$?
  if [ "$code" -ne 0 ] || ! tail -n 1 "$log" | grep -q '^{.*"metrics"'; then
    local why="exit $code"
    [ "$code" -eq 0 ] && why="exit 0 but no result line"
    echo "pair $3 $2: run failed ($why), kept out of the results; see $err" >&2
    echo "$3" >>"$out/$2.failed"
    return
  fi
  grep '^sim_digest' "$log" >>"$out/$2.digest" || true
  printf '%s %s\n' "$3" "$(tail -n 1 "$log")" >>"$out/$2.results"
}

rm -f "$out"/base.* "$out"/change.*
for side in base change; do
  : >"$out/$side.digest"; : >"$out/$side.results"; : >"$out/$side.failed"
done
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$base" base "$i"
    run "$change" change "$i"
  else
    run "$change" change "$i"
    run "$base" base "$i"
  fi
  echo "pair $i/$pairs done" >&2
done

if cmp -s <(sort -u "$out/base.digest") <(sort -u "$out/change.digest"); then
  echo "sim_digest: identical ($(sort -u "$out/change.digest" | wc -l) distinct line(s))"
else
  echo "sim_digest: DIFFERENT (see $out/*.digest)"
fi

# name better bound, one line per end-to-end metric of the manifest.
metrics=$(grep -o '"name": "[^"]*", "unit": "[^"]*", "better": "[a-z]*", "bound": [0-9.eE+-]*' \
  "$change/BENCHMARK.json" |
  sed 's/"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound": \(.*\)/\1 \2 \3/')

# One "side pair metric value" line per reading.
values() { # SIDE
  awk -v side="$1" '{
    pair = $1
    line = $0
    while (match(line, /"[a-z0-9_]+": \{"value": [^,}]+/)) {
      m = substr(line, RSTART, RLENGTH)
      line = substr(line, RSTART + RLENGTH)
      split(m, kv, /": \{"value": /)
      name = substr(kv[1], 2)
      print side, pair, name, kv[2]
    }
    if (match($0, /"failed": [0-9]+/)) print side, pair, "failed", substr($0, RSTART + 10, RLENGTH - 10)
  }' "$out/$1.results"
}

{
  values base
  values change
  echo "$metrics" | awk '{ print "metric", $1, $2, $3 }'
} | awk -v pairs="$pairs" -v workload="$workload" -v seed="$seed" -v seconds="$seconds" \
  -v base_failed="$(wc -l <"$out/base.failed")" \
  -v change_failed="$(wc -l <"$out/change.failed")" '
  function q(arr, n, p,   pos, lo) {
    pos = p * (n - 1); lo = int(pos)
    return lo + 1 < n ? arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo]) : arr[lo]
  }
  function sorted(side, m, out,   i, j, n, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, m) in v) out[n++] = v[side, i, m]
    for (i = 1; i < n; i++) for (j = i; j > 0 && out[j - 1] > out[j]; j--) {
      t = out[j]; out[j] = out[j - 1]; out[j - 1] = t
    }
    return n
  }
  $1 == "metric" { order[++nm] = $2; better[$2] = $3; bound[$2] = $4 + 0; next }
  { v[$1, $2, $3] = $4 + 0 }
  END {
    printf "%s seed %d, %d pairs of %s s runs (base -> change)\n", workload, seed, pairs, seconds
    printf "%-16s %12s %12s %26s %26s %6s %6s %6s  %-10s  %s\n", "metric", "base med",
      "change med", "base q1..q3", "change q1..q3", "wins", "losses", "ties", "gain holds",
      "verdict"
    for (k = 1; k <= nm; k++) {
      m = order[k]
      nb = sorted("base", m, b); nc = sorted("change", m, c)
      if (nb == 0 || nc == 0) { printf "%-16s (no readings)\n", m; continue }
      wins = 0; losses = 0; ties = 0
      for (i = 1; i <= pairs; i++) {
        if (!(("base", i, m) in v) || !(("change", i, m) in v)) continue
        d = v["change", i, m] - v["base", i, m]
        if (better[m] == "higher") d = -d
        if (d < 0) wins++; else if (d > 0) losses++; else ties++
      }
      mb = q(b, nb, 0.5); mc = q(c, nc, 0.5)
      gap = better[m] == "higher" ? mc - mb : mb - mc
      iqr = q(b, nb, 0.75) - q(b, nb, 0.25)
      holds = (wins * 10 >= 9 * pairs && gap > iqr) ? "yes" : "no"
      # b and c are sorted ascending; "beats" follows the better direction.
      dominates = better[m] == "higher" ? c[0] > b[nb - 1] : c[nc - 1] < b[0]
      limit = bound[m] * (mb < 0 ? -mb : mb)
      verdict = -gap > limit ? "WORSE" : (iqr > limit && !dominates) ? "unresolved" : "ok"
      printf "%-16s %12.6g %12.6g %12.6g..%-12.6g %12.6g..%-12.6g %6d %6d %6d  %-10s  %s\n", m, mb, mc,
        q(b, nb, 0.25), q(b, nb, 0.75), q(c, nc, 0.25), q(c, nc, 0.75), wins, losses, ties, holds,
        verdict
    }
    fb = 0; fc = 0
    for (i = 1; i <= pairs; i++) { fb += v["base", i, "failed"]; fc += v["change", i, "failed"] }
    printf "failed operations: base %d, change %d\n", fb, fc
    printf "runs failed: base %d, change %d\n", base_failed, change_failed
  }'
echo "raw results: $out"
