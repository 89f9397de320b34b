#!/usr/bin/env bash
# Benchmark comparison report (non-failing; stdlib + awk only).
#
# Runs the eig, service and round-scheduler benchmarks and prints two
# comparisons:
#
#   1. Engine old-vs-new: the eig benchmarks carry both storage engines as
#      sub-benchmarks (".../map" is the hash-map engine the flat engine
#      replaced), so one run yields a benchstat-style map-vs-flat delta
#      table without any git archaeology.
#   2. Baseline old-vs-new: the raw `go test -bench` output is written to
#      BENCH_go.txt; pass a previous run's file (or keep one as
#      BENCH_baseline.txt) and matching benchmarks are diffed old-vs-new.
#
# It also diffs the unified telemetry artifacts (BENCH_service.json,
# BENCH_cluster.json, BENCH_recovery.json, BENCH_fleet.json,
# BENCH_topology.json, BENCH_async.json — the first four embed the obs
# snapshot schema; the recovery artifact adds the crash-recovery section:
# restarts, checkpoint rejections, convergence-time stats; the fleet
# artifact adds the per-tier latency breakdown, per-tenant quota sheds, and
# the single-daemon speedup; the topology artifact is the Theorem 3
# boundary table: per-cell spec verdicts, connectivity margins, classic-BA
# baseline, and physical-traffic cost; the async artifact is the
# FIFO-vs-adversarial scheduling benchmark: deliveries-to-decision
# percentiles, certificate-traffic totals, and the always-zero
# safety_violations gate) against kept baselines
# (BENCH_service_baseline.json, BENCH_cluster_baseline.json,
# BENCH_recovery_baseline.json, BENCH_fleet_baseline.json,
# BENCH_topology_baseline.json, BENCH_async_baseline.json), so a cluster
# round-latency or router-overhead regression shows up in a check.sh run
# the same way a microbenchmark regression does.
#
# Usage:
#   scripts/bench_compare.sh [baseline.txt]
#   scripts/bench_compare.sh --artifacts-only   # only the JSON artifact diffs
#
# Environment:
#   BENCHTIME   per-benchmark time budget (default 0.3s; check.sh uses 1x
#               for a smoke pass)
#
# The script never fails the build: it is a report, not a gate. Benchmark
# regressions are for humans to judge with the numbers in front of them.
set -uo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-0.3s}"
RAW="BENCH_go.txt"
BASELINE="${1:-BENCH_baseline.txt}"

# artifact_keys extracts whitelisted numeric "key": value pairs from an
# indented bench-artifact JSON (the unified snapshot schema keeps these key
# names stable across BENCH_service.json and BENCH_cluster.json).
artifact_keys() {
  awk '
    match($0, /"(roundWaitP50Ms|roundWaitP99Ms|roundWaitMaxMs|lateBatches|late_batches_total|deadline_misses_total|vd_subs_total|throughput_per_s|latency_p50_us|latency_p99_us|degraded_fraction|spec_violations|vd_decider_fraction|floor_margin_min|degraded_total|completed_total|fastpath_hit_total|fastpath_fallback_total|fastpath_hits|fastpath_fallbacks|fastpath_hit_frac|restarts|checkpointsTotal|corruptRejected|staleRejected|missingReinits|convergeCount|convergeMeanMs|convergeMaxMs|restart_total|checkpoint_corrupt_total|checkpoint_stale_total|checkpoint_missing_total|p50_us|p95_us|p99_us|quota_shed|router_overhead_frac|speedup_vs_single|single_throughput_per_s|send_lag_max_us|connectivity_margin|hops_per_logical_msg|forwarded_total|hops_total|cells_total|cells_held|cells_degraded|cells_failed|classic_refused_degradable_ok|bound_violations|dtd_p50|dtd_p95|dtd_p99|echo_total|ready_total|cert_total|terminated|not_terminated|safety_violations)":[ ]*-?[0-9.eE+-]+/) {
      s = substr($0, RSTART, RLENGTH)
      split(s, kv, /":[ ]*/)
      key = substr(kv[1], 2)
      if (!(key in seen)) { seen[key] = 1; print key, kv[2] }
    }
  ' "$1"
}

# artifact_diff prints one artifact either as current values (no baseline)
# or as an old-vs-new delta table.
artifact_diff() {
  local new="$1" old="$2" title="$3"
  [ -f "$new" ] || return 0
  echo
  echo "== $title ($new vs ${old##*/}) =="
  if [ -f "$old" ]; then
    { artifact_keys "$old"; echo ---; artifact_keys "$new"; } | awk '
      /^---$/ { phase = 1; next }
      phase == 0 { oldv[$1] = $2; next }
      { newv[$1] = $2; if ($1 in oldv) seen[$1] = 1 }
      END {
        printf "%-28s %14s %14s %9s\n", "metric", "old", "new", "delta"
        n = 0
        for (k in seen) order[n++] = k
        for (i = 1; i < n; i++) { t = order[i]; j = i - 1
          while (j >= 0 && order[j] > t) { order[j+1] = order[j]; j-- }
          order[j+1] = t }
        for (i = 0; i < n; i++) { k = order[i]
          d = (oldv[k] != 0) ? (newv[k] - oldv[k]) / oldv[k] * 100 : 0
          printf "%-28s %14.6g %14.6g %8.1f%%\n", k, oldv[k], newv[k], d
        }
      }
    '
  else
    echo "(no baseline; keep a previous $new as $old to get deltas)"
    artifact_keys "$new" | awk '{ printf "%-28s %14.6g\n", $1, $2 }'
  fi
}

if [ "${1:-}" = "--artifacts-only" ]; then
  artifact_diff BENCH_service.json BENCH_service_baseline.json "service telemetry snapshot"
  artifact_diff BENCH_cluster.json BENCH_cluster_baseline.json "cluster round-latency snapshot"
  artifact_diff BENCH_recovery.json BENCH_recovery_baseline.json "crash-recovery snapshot"
  artifact_diff BENCH_fleet.json BENCH_fleet_baseline.json "fleet per-tier latency snapshot"
  artifact_diff BENCH_topology.json BENCH_topology_baseline.json "Theorem 3 topology boundary table"
  artifact_diff BENCH_async.json BENCH_async_baseline.json "async scheduling benchmark (FIFO row)"
  exit 0
fi

echo "== benchmarks (benchtime=$BENCHTIME) =="
{
  go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/eig/
  go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/service/
  go test -run '^$' -bench . -benchtime "$BENCHTIME" ./internal/round/
} 2>&1 | tee "$RAW" | grep -E '^(Benchmark|ok|FAIL|---)' || true

echo
echo "== eig engine comparison (old = map engine, new = flat engine) =="
awk '
  # Lines look like: BenchmarkSetResolve/n7_d2/flat-4  999  124.5 ns/op  0 B/op  0 allocs/op
  /^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)            # strip the GOMAXPROCS suffix
    for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i-1)
    if (name ~ /\/flat$/) { key = name; sub(/\/flat$/, "", key); flat[key] = ns; seen[key] = 1 }
    if (name ~ /\/map$/)  { key = name; sub(/\/map$/, "", key);  mp[key] = ns;   seen[key] = 1 }
  }
  END {
    printf "%-34s %12s %12s %9s\n", "benchmark", "map ns/op", "flat ns/op", "delta"
    n = 0
    for (key in seen) order[n++] = key
    # insertion sort for stable, awk-portable output ordering
    for (i = 1; i < n; i++) { t = order[i]; j = i - 1
      while (j >= 0 && order[j] > t) { order[j+1] = order[j]; j-- }
      order[j+1] = t }
    for (i = 0; i < n; i++) { key = order[i]
      if (!(key in flat) || !(key in mp)) continue
      d = (flat[key] - mp[key]) / mp[key] * 100
      printf "%-34s %12.5g %12.5g %8.1f%%\n", key, mp[key], flat[key], d
    }
  }
' "$RAW"

if [ -f "$BASELINE" ] && [ "$BASELINE" != "$RAW" ]; then
  echo
  echo "== baseline comparison (old = $BASELINE, new = $RAW) =="
  awk '
    /^Benchmark/ && /ns\/op/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i-1)
      if (FILENAME == ARGV[1]) { old[name] = ns } else { new_[name] = ns; if (name in old) seen[name] = 1 }
    }
    END {
      printf "%-44s %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
      n = 0
      for (name in seen) order[n++] = name
      for (i = 1; i < n; i++) { t = order[i]; j = i - 1
        while (j >= 0 && order[j] > t) { order[j+1] = order[j]; j-- }
        order[j+1] = t }
      for (i = 0; i < n; i++) { name = order[i]
        d = (new_[name] - old[name]) / old[name] * 100
        printf "%-44s %12.5g %12.5g %8.1f%%\n", name, old[name], new_[name], d
      }
    }
  ' "$BASELINE" "$RAW"
else
  echo
  echo "(no baseline file; keep a previous $RAW as $BASELINE to get old-vs-new deltas)"
fi

artifact_diff BENCH_service.json BENCH_service_baseline.json "service telemetry snapshot"
artifact_diff BENCH_cluster.json BENCH_cluster_baseline.json "cluster round-latency snapshot"
artifact_diff BENCH_recovery.json BENCH_recovery_baseline.json "crash-recovery snapshot"
artifact_diff BENCH_fleet.json BENCH_fleet_baseline.json "fleet per-tier latency snapshot"
artifact_diff BENCH_topology.json BENCH_topology_baseline.json "Theorem 3 topology boundary table"
artifact_diff BENCH_async.json BENCH_async_baseline.json "async scheduling benchmark (FIFO row)"

exit 0
