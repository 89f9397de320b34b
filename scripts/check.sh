#!/usr/bin/env bash
# Repository health check: format, vet, full tests (including exhaustive
# enumerations, the bench module's tests and the race detector), pass/fail
# smokes of the real-process drivers, and one run of the repo's only
# benchmark, bench/, whose report lands in BENCH.json.
set -euo pipefail
cd "$(dirname "$0")/.."
# Sweep tables the goldens already pin are written here, not to the repo.
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== gofmt =="
fmtout=$(gofmt -l .)
if [ -n "$fmtout" ]; then
	echo "unformatted files:" "$fmtout"
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== one RNG idiom =="
# Every seeded source outside bench/ comes from internal/rng, whose stream
# equals math/rand's but seeds in O(1) and can be re-seeded or pooled; a
# rand.NewSource elsewhere would bring back a 4.9 kB eager seeding per use.
if grep -rl --include='*.go' 'rand\.NewSource' . |
  grep -v -e '_test\.go$' -e '^\./internal/rng/' -e '^\./bench/'; then
	echo "non-test rand.NewSource outside internal/rng/ and bench/: use rng.New, rng.Get or Seed"
	exit 1
fi

echo "== one assembly =="
# Every in-memory run is built and judged by runner.Instance. The degrade
# subcommand alone assembles one by hand: -explain renders the trees of the
# nodes it built.
if grep -rlE --include='*.go' 'adversary\.Wrap\(|round\.Run\(' . |
  grep -v -e '_test\.go$' -e '^\./internal/runner/' -e '^\./bench/' -e '^\./cmd/degradable/degrade\.go$'; then
	echo "adversary.Wrap or round.Run outside internal/runner/ and cmd/degradable/degrade.go: build a runner.Instance"
	exit 1
fi

echo "== non-test lines =="
# ROADMAP item 1's count.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l

echo "== go test =="
# Includes TestBenchModule, which runs go vet and go test in the bench/
# module (its own go.mod, so ./... alone stops at it).
go test ./...

echo "== go test -race (short) =="
go test -race -short ./...

echo "== go test -race (full, service + wire + proc + cluster + fleet + chaos) =="
go test -race ./internal/service/... ./internal/wire/... ./internal/proc/... ./internal/cluster/... ./internal/fleet/... ./internal/chaos/...

echo "== burst writes (race, repeated) =="
# The pipelined connections' coalescing write side, in the client and in the
# router's backend pool: 16 frames queued behind a blocked write reach the
# conn in two writes, an idle send writes inline, a failed write fails every
# pending request exactly once, and an encode error leaves no partial frame.
# The tests drive a gated fake conn, so repeating them under the race
# detector covers the interleavings the loopback tests rarely hit.
go test -race -count=20 -run 'Burst' ./internal/wire/ ./internal/fleet/

echo "== forced decisions, replay parity and the server's writer (race, repeated) =="
# A fault-free request is decided on the submitting goroutine: Slot.Do,
# Service.Do and the wire server answer it as the shard did, with the same
# per-shard counters and spec samples. Every served request, forced or not,
# replays as a chaos scenario with the same decisions and verdict
# (ReplayParity). The server's writer flushes before it waits on an undecided
# outcome, and a failed write ends the connection without wedging its
# reader, so Shutdown returns.
go test -race -count=20 -run 'ForcedParity|ReplayParity' ./internal/service/ ./internal/chaos/
go test -race -count=20 -run 'ShutdownAfterFailedWrite|FlushesBeforeWaiting' ./internal/wire/

echo "== go benchmark smoke =="
# One iteration of every go benchmark in the paper tables, the EIG engines,
# the service hot path, the round scheduler and the pipelined wire client:
# a benchmark that stops building or starts erroring fails here. The numbers
# are not the point; bench/ at the end is the repo's one measurement.
go test -run XXX -bench . -benchtime 1x . ./internal/eig/ ./internal/service/ ./internal/round/ ./internal/wire/

echo "== examples smoke =="
# Every examples/ program runs to completion (set -e fails the script on a
# non-zero exit); examples/flybywire is the one Figure-1 mission program.
for ex in examples/*/; do
	go run "./$ex" >/dev/null
done

echo "== build the binary =="
# Every smoke below runs the one command, cmd/degradable, built once.
go build -o "$scratch/degradable" ./cmd/degradable
degradable="$scratch/degradable"

echo "== chaos campaign smoke =="
"$degradable" chaos -seed 42 -runs 250 >/dev/null

echo "== topology smoke (sparse graphs under the round engine) =="
# A Harary-graph campaign with liars pinned on a minimum vertex cut, then
# a bridged-cut-set campaign; the binary already exits non-zero on any
# spec violation, and the greps gate that the sparse axis was actually
# exercised (per-margin tally lines present with live scenario counts).
"$degradable" chaos -seed 11 -runs 150 -graph harary:4:9 -placement cutset |
  grep -E 'topology margin=\+[0-9]+: scenarios=[1-9]'
"$degradable" chaos -seed 12 -runs 150 -graph bridge:3:4:3 -placement mixed |
  grep -E 'topology margin='
# A graph that parses but cannot be built (no connected G(9, 0.05) draw)
# must fail the campaign, not run it flat.
if "$degradable" chaos -seed 11 -runs 20 -graph gnp:9:0.05:1 >/dev/null 2>&1; then
  echo "an unbuildable -graph ran as a flat campaign"
  exit 1
fi
# Every chaos run reads one process-wide memo of graph analyses and route
# tables (topology.Shared): a full race pass over the packages that share it.
# Then a short fuzz of the sparse channel against its hop-by-hop twin
# (decisions, deliveries, degraded and hop counters on random graphs), and
# of the buffer-reusing injector chain against its eager, slice-per-message
# oracle (returned copies in order, and counters).
go test -race ./internal/topology/... ./internal/transport/... ./internal/chaos/...
go test -run '^$' -fuzz FuzzTransportVsRouted -fuzztime 10s ./internal/transport
go test -run '^$' -fuzz FuzzChainVsEager -fuzztime 10s ./internal/chaos
# Every campaign coin, fault and schedule draws from internal/rng's lazily
# seeded source: fuzz it against math/rand (every Rand method, mid-stream
# re-seeds, runs past the 607-word register wrap).
go test -run '^$' -fuzz FuzzSourceVsMathRand -fuzztime 10s ./internal/rng
# The EIG tree against its string-map oracle: stores, and every path's
# entry in the record the resolve sweep fills (what -explain prints).
go test -run '^$' -fuzz FuzzFlatVsMap -fuzztime 10s ./internal/eig
# A snapshot is what a crash-recovery checkpoint restores: Import against
# the reference decoder, allocating within a small multiple of the input.
go test -run '^$' -fuzz FuzzSnapshotImport -fuzztime 10s ./internal/eig
# The last level's references and counts against a tree that copies every
# leaf and gathers every vote: referenced, copied and lying relayers,
# early leaves, late parents, two runs across a Reset.
go test -run '^$' -fuzz FuzzReferVsCopy -fuzztime 10s ./internal/eig
# The bulk lane against its per-message twin: honest and lying relayers,
# every fault kind, trees after every Step, Corrupt calls and accounting.
go test -run '^$' -fuzz FuzzLaneVsPerMessage -fuzztime 10s ./internal/round
# VOTE against its counting oracle, at every threshold: the one-pass
# majority path above half the vector, the tie-aware paths below it.
go test -run '^$' -fuzz '^FuzzVote$' -fuzztime 10s ./internal/vote
# The wire decoders read what a peer sends: request (plain and tagged),
# response and round batch. None may panic or allocate past a small
# multiple of the frame, and an accepted frame must be what the encoder
# writes for the decoded value.
for target in FuzzDecodeRequest FuzzDecodeTaggedRequest FuzzDecodeResponse FuzzDecodeRoundBatch; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 30s ./internal/wire
done
# The Theorem 3 boundary table: graph family x fault placement x f, with
# the classic-BA baseline column. The grep gates the paper's headline —
# at least one classic-refused-but-degradable cell — and zero violations
# above the bound (the sweep itself exits non-zero on any). The table is
# a golden (cmd/degradable/testdata/topo_sweep_seed9.json, pinned byte for byte
# by go test), so this run writes to the scratch directory.
"$degradable" chaos -seed 9 -topo-sweep "$scratch/topo.json" -topo-runs 2 |
  grep -E 'classic_refused_degradable_ok=[1-9][0-9]* bound_violations=0'

echo "== async smoke (A-Cast + ABA under adversarial schedulers) =="
# A ≥200-scenario asynchronous campaign over the full scheduler pool
# (FIFO, reorder, unbounded delay, adversarial LIFO-bias, targeted
# starvation): the binary exits non-zero on any Violated outcome or missed
# expectation, judged by internal/spec (D.1/D.2 at the n > 3f tolerance)
# as the sync drivers are, and the grep gates that safety held under every
# schedule while starvation produced its NotTerminated verdicts. Then the
# FIFO-vs-adversarial scheduling sweep, which exits non-zero on any safety
# violation; its table is the golden cmd/degradable/testdata/async_sweep_seed7.json,
# so this run writes to the scratch directory.
"$degradable" chaos -seed 42 -runs 250 -async |
  grep -E 'async: terminated=[1-9][0-9]* notTerminated=[1-9][0-9]* \(starved=[1-9][0-9]*\) certificates=[1-9][0-9]* safety_violations=0'
"$degradable" chaos -seed 7 -async-sweep "$scratch/async.json" -async-runs 200 |
  grep -E 'async sweep adversarial: .* safety_violations=0'
# Two replays through the same judge: two two-faced nodes at n=4 are past
# the tolerance, where nothing is promised (exit 0, regime async-beyond);
# a pinned D.1 with a lying broadcaster must be missed (exit non-zero).
"$degradable" chaos -replay '{"n":4,"seed":7,"driver":"async","sched":"adversarial","faults":[{"node":0,"kind":4,"value":2002},{"node":3,"kind":4,"value":3003}]}' |
  grep -E 'regime async-beyond'
if missed=$("$degradable" chaos -shrink=false -replay '{"n":4,"seed":5,"driver":"async","sched":"adversarial","faults":[{"node":0,"kind":3,"value":2002}],"expect":{"condition":"D.1"}}' 2>&1); then
	echo "pinned-D.1 async replay met its expectation; want missed"
	exit 1
fi
grep -E 'pinned condition D.1 failed' <<<"$missed"
# The A-Cast/ABA handlers emit into a node-owned outbox; the order they emit
# in is schedule. Hold it to the slice-returning oracle (transcript and result
# over n x policy x fault wrapper, then a short fuzz of the same differential)
# and hold the warmed handlers and the run's borrowed-slice rule to 0 allocs
# and no stale reads.
go test -run 'Oracle|AllocsPerRun' ./internal/acast ./internal/round
go test -run '^$' -fuzz FuzzOutboxVsOracle -fuzztime 10s ./internal/acast
# Every policy's queue discipline against the slice-scanning scheduler
# oracle, with the fuzzer choosing policy, seed and operation stream.
go test -run '^$' -fuzz FuzzSchedulerVsOracle -fuzztime 10s ./internal/round

echo "== cluster mode smoke (one OS process per node) =="
# The paper's running example as 7 real processes over loopback TCP, then a
# short chaos campaign where every scenario runs cross-process. Exits
# non-zero on any D.1-D.4 / m+1-floor violation; writes the structured
# round-event stream TRACE_cluster.jsonl at the repo root.
"$degradable" cluster -n 7 -m 1 -u 2 -faults 2:twofaced:999,5:silent -deadline 10s -trace TRACE_cluster.jsonl >/dev/null
"$degradable" cluster -n 7 -m 1 -u 2 -campaign 10 -seed 7 -deadline 10s >/dev/null

echo "== crash-recovery smoke (mid-round SIGKILL + checkpoint restore) =="
# The paper's running example again, but node 2 is SIGKILLed right after its
# round-2 send, restarts from its checkpoint, and rejoins. The grep is the
# gate: the run must land in the Converged-in-k taxonomy with k <= m+1 (= 2)
# and a clean verdict — `degradable cluster` already exits non-zero on any spec
# violation. Writes the recovery round-event stream to TRACE_recovery.jsonl
# at the repo root.
"$degradable" cluster -n 7 -m 1 -u 2 -kill 2:2:sent -deadline 10s \
  -trace TRACE_recovery.jsonl |
  grep -E 'recovery: Converged-in-[0-2]-rounds'

echo "== benchmark (bench/, the repo's one measurement instrument) =="
# All five BENCHMARK.json workloads with short windows, then a traced pass
# of each. It exits non-zero on a failed operation (wrong reply, spec
# violation, simulator digest mismatch). The report is BENCH.json at the
# repo root (gitignored; CI uploads it). The real-process fleet smoke —
# quota sheds for a capped tenant, none for an uncapped one — is
# TestLaunchFleet in go test above: it spawns the shipped ServeFlags and
# RouterFlags as child processes through internal/proc.
go run -C bench degradable/bench -seconds 2 -out "$PWD/BENCH.json"

echo "all checks passed"
