#!/usr/bin/env bash
# Repository health check: format, vet, full tests (including exhaustive
# enumerations and the race detector), and a quick benchmark smoke pass.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
fmtout=$(gofmt -l .)
if [ -n "$fmtout" ]; then
	echo "unformatted files:" "$fmtout"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go test =="
go test ./...

echo "== bench module (vet + smoke and determinism tests) =="
# bench/ is a module of its own, so ./... above stops at its go.mod. Its
# timedDriver follows the round.Driver contract from outside the engine: an
# engine change that breaks that contract must fail here, not at the
# benchmark gate.
go vet -C bench ./...
go test -C bench ./...

echo "== go test -race (short) =="
go test -race -short ./...

echo "== go test -race (full, service + wire + cluster + fleet) =="
go test -race ./internal/service/... ./internal/wire/... ./internal/cluster/... ./internal/fleet/...

echo "== benchmark smoke =="
# The output is the point of a smoke pass: a benchmark that silently stops
# producing numbers (or starts erroring) must be visible here, not hidden
# in /dev/null.
go test -run XXX -bench . -benchtime 1x .
# One delivery per policy and queue length: the scheduler benchmark must
# keep building and running (bench_compare.sh below reports it, but a
# report cannot fail the check).
go test -run XXX -bench SchedulerNext -benchtime 1x ./internal/round/

echo "== benchmark comparison (non-failing report) =="
# Runs the eig + service + round-scheduler benchmarks (1 iteration each:
# this is the smoke pass for those packages too) and prints the map-vs-flat
# engine deltas.
# A report, not a gate — it never fails the check.
BENCHTIME=1x scripts/bench_compare.sh

echo "== service load benchmark (fault matrix + shard matrix) =="
# Short in-process fault-probability sweep (the fast-path speedup as a
# function of fault mix) followed by the shard sweep; writes the
# BENCH_service.json artifact at the repo root (throughput, latency
# percentiles, rejection rate, fastpath_hit_frac, and both matrices).
# Exits non-zero on any spec-sample violation. Scaling is
# hardware-dependent: on a single-core runner every point lands near 1x.
go run ./cmd/loadgen -inproc -fault-prob-sweep 0,0.25,0.5 -shard-sweep 1,2,4,8 -duration 2s -n 7 -m 1 -u 2 -json BENCH_service.json

echo "== chaos campaign smoke =="
go run ./cmd/chaos -seed 42 -runs 250 >/dev/null

echo "== topology smoke (sparse graphs under the round engine) =="
# A Harary-graph campaign with liars pinned on a minimum vertex cut, then
# a bridged-cut-set campaign; the binary already exits non-zero on any
# spec violation, and the greps gate that the sparse axis was actually
# exercised (per-margin tally lines present with live scenario counts).
go run ./cmd/chaos -seed 11 -runs 150 -graph harary:4:9 -placement cutset |
  grep -E 'topology margin=\+[0-9]+: scenarios=[1-9]'
go run ./cmd/chaos -seed 12 -runs 150 -graph bridge:3:4:3 -placement mixed |
  grep -E 'topology margin='
# The Theorem 3 boundary table: graph family x fault placement x f, with
# the classic-BA baseline column. The grep gates the paper's headline —
# at least one classic-refused-but-degradable cell — and zero violations
# above the bound (the sweep itself exits non-zero on any). Writes the
# BENCH_topology.json artifact at the repo root.
go run ./cmd/chaos -seed 9 -topo-sweep BENCH_topology.json -topo-runs 2 |
  grep -E 'classic_refused_degradable_ok=[1-9][0-9]* bound_violations=0'

echo "== async smoke (A-Cast + ABA under adversarial schedulers) =="
# A ≥200-scenario asynchronous campaign over the full scheduler pool
# (FIFO, reorder, unbounded delay, adversarial LIFO-bias, targeted
# starvation): the binary exits non-zero on any agreement/validity
# violation, and the grep gates that quorum safety held under every
# schedule while starvation produced its NotTerminated verdicts. Then the
# FIFO-vs-adversarial scheduling benchmark, which writes the
# deliveries-to-decision percentile artifact BENCH_async.json at the repo
# root and exits non-zero on any safety violation.
go run ./cmd/chaos -seed 42 -runs 250 -async |
  grep -E 'async: terminated=[1-9][0-9]* notTerminated=[1-9][0-9]* \(starved=[1-9][0-9]*\) certificates=[1-9][0-9]* safety_violations=0'
go run ./cmd/chaos -seed 7 -async-sweep BENCH_async.json -async-runs 200 |
  grep -E 'async sweep adversarial: .* safety_violations=0'
# The A-Cast/ABA handlers emit into a node-owned outbox; the order they emit
# in is schedule. Hold it to the slice-returning oracle (transcript and result
# over n x policy x fault wrapper, then a short fuzz of the same differential)
# and hold the warmed handlers and the run's borrowed-slice rule to 0 allocs
# and no stale reads.
go test -run 'Oracle|AllocsPerRun' ./internal/acast ./internal/round
go test -run '^$' -fuzz FuzzOutboxVsOracle -fuzztime 10s ./internal/acast

echo "== cluster mode smoke (one OS process per node) =="
# The paper's running example as 7 real processes over loopback TCP, then a
# short chaos campaign where every scenario runs cross-process. Exits
# non-zero on any D.1-D.4 / m+1-floor violation; writes the round-latency
# artifact BENCH_cluster.json and the structured round-event stream
# TRACE_cluster.jsonl at the repo root.
go run ./cmd/cluster -n 7 -m 1 -u 2 -faults 2:twofaced:999,5:silent -deadline 10s -trace TRACE_cluster.jsonl >/dev/null
go run ./cmd/cluster -n 7 -m 1 -u 2 -campaign 10 -seed 7 -deadline 10s -bench BENCH_cluster.json >/dev/null

echo "== crash-recovery smoke (mid-round SIGKILL + checkpoint restore) =="
# The paper's running example again, but node 2 is SIGKILLed right after its
# round-2 send, restarts from its checkpoint, and rejoins. The grep is the
# gate: the run must land in the Converged-in-k taxonomy with k <= m+1 (= 2)
# and a clean verdict — cmd/cluster already exits non-zero on any spec
# violation. Writes the convergence histogram + restart counters to
# BENCH_recovery.json and the recovery round-event stream to
# TRACE_recovery.jsonl at the repo root.
go run ./cmd/cluster -n 7 -m 1 -u 2 -kill 2:2:sent -deadline 10s \
  -bench BENCH_recovery.json -trace TRACE_recovery.jsonl |
  grep -E 'recovery: Converged-in-[0-2]-rounds'

echo "== fleet smoke (router + 2 daemons, CO-safe open loop) =="
# Builds the real serve and router binaries, spawns two daemons behind the
# router, and drives a short coordinated-omission-safe open-loop burst with
# tenant 1 quota-capped at 8/s. loadgen exits non-zero on any spec
# violation or request error; the greps gate the admission story — the
# capped tenant must shed with the explicit resource_exhausted status, and
# the uncapped tenant must not shed at all. The depth-4 shape keeps
# backend work dominant so the per-tier breakdown stays meaningful on a
# one-core runner. Writes the per-tier latency artifact BENCH_fleet.json
# at the repo root.
mkdir -p bin
go build -o bin/serve ./cmd/serve
go build -o bin/router ./cmd/router
go run ./cmd/loadgen -fleet 2 -conns 4 -tenants 2 -rate 40 -duration 3s \
  -n 11 -m 3 -u 3 -quota 1:8:3 \
  -serve-bin bin/serve -router-bin bin/router -json BENCH_fleet.json |
  tee /tmp/fleet_smoke.out
grep -Eq 'tenant 1 +requests=.* quota_shed=[1-9]' /tmp/fleet_smoke.out
grep -Eq 'tenant 0 +requests=.* quota_shed=0 ' /tmp/fleet_smoke.out

echo "== telemetry artifact comparison (non-failing report) =="
# Diffs the unified obs snapshots embedded in BENCH_service.json and
# BENCH_cluster.json against kept baselines, so a cluster round-latency
# regression is visible in the same place as a microbenchmark one.
scripts/bench_compare.sh --artifacts-only

echo "all checks passed"
