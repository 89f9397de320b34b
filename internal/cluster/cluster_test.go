package cluster

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"degradable/internal/adversary"
	"degradable/internal/chaos"
	"degradable/internal/core"
	"degradable/internal/obs"
	"degradable/internal/runner"
	"degradable/internal/types"
)

// TestMain hijacks re-executed copies of this test binary into the node
// runtime: the launcher's default command is os.Executable(), so every
// cluster test below runs its nodes as real OS processes built from this
// very package.
func TestMain(m *testing.M) {
	Hijack()
	os.Exit(m.Run())
}

// diffCase is one point of the cross-driver differential matrix.
type diffCase struct {
	name    string
	n, m, u int
	sender  types.NodeID
	faults  []adversary.FaultSpec
}

// diffMatrix is the seeded matrix of (N, m, u, fault script) points the
// differential test sweeps. Fault behaviours are deterministic per node
// (KindRandom is seeded), so both drivers must agree byte for byte.
func diffMatrix(short bool) []diffCase {
	cases := []diffCase{
		{name: "min-1-1-clean", n: 4, m: 1, u: 1},
		{name: "paper-5-1-2-twofaced", n: 5, m: 1, u: 2,
			faults: []adversary.FaultSpec{{Node: 2, Kind: adversary.KindTwoFaced, Value: 999}}},
		{name: "echo-4-0-2-silent", n: 4, m: 0, u: 2,
			faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindSilent}}},
	}
	if short {
		return cases
	}
	return append(cases,
		diffCase{name: "faulty-sender-lie", n: 5, m: 1, u: 2, sender: 0,
			faults: []adversary.FaultSpec{{Node: 0, Kind: adversary.KindLie, Value: 777}}},
		diffCase{name: "degraded-7-1-2", n: 7, m: 1, u: 2,
			faults: []adversary.FaultSpec{
				{Node: 1, Kind: adversary.KindTwoFaced, Value: 999},
				{Node: 4, Kind: adversary.KindRandom, Value: 888, Seed: 42},
			}},
		diffCase{name: "depth3-7-2-2", n: 7, m: 2, u: 2,
			faults: []adversary.FaultSpec{
				{Node: 2, Kind: adversary.KindCrash, Value: 0, Seed: 7},
				{Node: 5, Kind: adversary.KindLie, Value: 777},
			}},
		diffCase{name: "beyond-u-5-1-2", n: 5, m: 1, u: 2,
			faults: []adversary.FaultSpec{
				{Node: 1, Kind: adversary.KindSilent},
				{Node: 2, Kind: adversary.KindLie, Value: 777},
				{Node: 3, Kind: adversary.KindTwoFaced, Value: 999},
			}},
	)
}

// inProcessRun builds one matrix case as an in-process instance, which
// runs on round.Reference.
func inProcessRun(t *testing.T, c diffCase) *runner.Instance {
	t.Helper()
	strategies := make(map[types.NodeID]adversary.Strategy, len(c.faults))
	for _, f := range c.faults {
		s, err := f.Strategy(c.n)
		if err != nil {
			t.Fatal(err)
		}
		strategies[f.Node] = s
	}
	return &runner.Instance{
		Protocol:    core.Params{N: c.n, M: c.m, U: c.u, Sender: c.sender},
		SenderValue: 1001,
		Strategies:  strategies,
		RecordViews: true,
	}
}

// TestDifferentialDrivers asserts that the reference and cluster drivers
// produce byte-identical decisions, view transcripts and accounting across
// the matrix. The cluster deadline is generous, so no loopback delivery can
// be misread as an absence. The reference schedule's concurrent twin, one
// goroutine per node, is held to the same results in internal/round's
// oracle_test.go, under the race detector.
func TestDifferentialDrivers(t *testing.T) {
	for _, c := range diffMatrix(testing.Short()) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			// The reference driver is deterministic: two runs must agree not
			// only on decisions but on the structured round event stream,
			// which the matrix therefore also pins.
			refIn := inProcessRun(t, c)
			refTrace := obs.NewTracer(1024)
			refIn.Sink = refTrace
			refRes, _, err := refIn.Run()
			if err != nil {
				t.Fatal(err)
			}
			refIn2 := inProcessRun(t, c)
			refTrace2 := obs.NewTracer(1024)
			refIn2.Sink = refTrace2
			if _, _, err := refIn2.Run(); err != nil {
				t.Fatal(err)
			}
			events, events2 := refTrace.Events(), refTrace2.Events()
			if len(events) == 0 {
				t.Fatal("reference driver emitted no round events")
			}
			if events[0].Kind != obs.EvRoundOpen {
				t.Fatalf("event stream starts with %s, want roundOpen", events[0].Kind)
			}
			if !reflect.DeepEqual(events, events2) {
				t.Fatalf("reference event streams differ:\n%v\n%v", events, events2)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			rep, err := Run(ctx, Config{
				N: c.n, M: c.m, U: c.u, Sender: c.sender, SenderValue: 1001,
				Faults: c.faults, Deadline: 30 * time.Second, RecordViews: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			cluRes := rep.Result

			if !reflect.DeepEqual(refRes.Decisions, cluRes.Decisions) {
				t.Fatalf("reference vs cluster decisions:\n%v\n%v", refRes.Decisions, cluRes.Decisions)
			}
			for id := range refRes.Views {
				if !viewsEqual(refRes.Views[id], cluRes.Views[id]) {
					t.Fatalf("node %d: reference vs cluster views differ:\n%v\n%v",
						int(id), refRes.Views[id], cluRes.Views[id])
				}
			}
			if refRes.Messages != cluRes.Messages || refRes.Delivered != cluRes.Delivered ||
				refRes.Bytes != cluRes.Bytes || !reflect.DeepEqual(refRes.PerRound, cluRes.PerRound) {
				t.Fatalf("accounting differs: reference {%d %d %d %v} cluster {%d %d %d %v}",
					refRes.Messages, refRes.Delivered, refRes.Bytes, refRes.PerRound,
					cluRes.Messages, cluRes.Delivered, cluRes.Bytes, cluRes.PerRound)
			}
			if rep.Late() != 0 {
				t.Fatalf("%d late batches under a generous deadline", rep.Late())
			}
		})
	}
}

// viewsEqual compares two delivered transcripts field by field, treating
// nil and empty paths as equal (a JSON round trip does not preserve the
// distinction).
func viewsEqual(a, b []types.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.From != y.From || x.To != y.To || x.Round != y.Round || x.Value != y.Value {
			return false
		}
		if len(x.Path) != len(y.Path) {
			return false
		}
		for j := range x.Path {
			if x.Path[j] != y.Path[j] {
				return false
			}
		}
	}
	return true
}

// TestDeadlineDetectsAbsence kills synchrony on purpose: a 1ns hold-back
// deadline makes every peer batch miss its round, so every receiver decides
// from an all-absent view — the degenerate but well-defined §4(b) limit.
// The run must complete (no hang) and every fault-free node must decide,
// with the missed batches counted late.
func TestDeadlineDetectsAbsence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := Run(ctx, Config{
		N: 4, M: 1, U: 1, SenderValue: 1001, Deadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Result.Decisions) != 4 {
		t.Fatalf("%d decisions", len(rep.Result.Decisions))
	}
	for id, d := range rep.Result.Decisions {
		if id == 0 {
			continue // the sender decides its own value without any network
		}
		if d != types.Default {
			t.Errorf("node %d decided %s from an all-absent view, want %s", int(id), d, types.Default)
		}
	}
	// Whether the starved batches register as late depends on whether they
	// arrive before the node's last round closes, so Late is not asserted;
	// what matters is that the run terminated and receivers fell back to V_d.
}

// TestRunFailsFastOnSilentNode: a node process that never prints its
// listen line fails the launch at the startup deadline, instead of blocking
// Run for as long as the process lives.
func TestRunFailsFastOnSilentNode(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	_, err := Run(ctx, Config{N: 4, M: 1, U: 1, Command: []string{"sleep", "30"}})
	if err == nil {
		t.Fatal("Run succeeded with silent nodes")
	}
	if elapsed := time.Since(start); elapsed >= 15*time.Second {
		t.Fatalf("Run failed after %v (%v), want within the startup deadline", elapsed, err)
	}
}

// TestRunRejectsUnwritableCheckpointDir: an explicit checkpoint directory
// that cannot be written fails the launch before any node process starts
// (the command would fail differently if one did), with an error naming the
// directory. A path under a regular file fails even for root. A writable
// directory passes and is left as it was.
func TestRunRejectsUnwritableCheckpointDir(t *testing.T) {
	tmp := t.TempDir()
	file := filepath.Join(tmp, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(file, "ckpt")
	_, err := Run(context.Background(), Config{N: 4, M: 1, U: 1, CheckpointDir: dir, Command: []string{"/nonexistent/node"}})
	if err == nil || !strings.Contains(err.Error(), "checkpoint dir "+dir+" is not writable") {
		t.Fatalf("Run with checkpoint dir under a file: %v, want the directory named as not writable", err)
	}
	if err := probeDir(tmp); err != nil {
		t.Fatalf("writable dir: %v", err)
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 1 {
		t.Fatalf("the probe left %v behind (%v)", ents, err)
	}
}

// TestClusterChaosSmoke runs a short chaos campaign where every scenario
// executes as one OS process per node, classified against D.1–D.4 and the
// §2 m+1 floor by the same judging machinery as the in-process campaigns.
func TestClusterChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns many processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	c := chaos.Campaign{
		Seed:   7,
		Runs:   12,
		Driver: chaos.DriverCluster,
		Grid: []chaos.GridPoint{
			{N: 5, M: 1, U: 2},
			{N: 4, M: 0, U: 2},
			{N: 7, M: 1, U: 2},
		},
	}
	rep, err := c.RunContextWith(ctx, Executor(ctx, 10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interrupted {
		t.Fatal("campaign interrupted by its own deadline")
	}
	if !rep.Healthy() {
		for _, f := range rep.Failures {
			t.Errorf("failure: %s (repro: %s)", f.Outcome.ExpectReason, f.ReproCommand)
		}
		t.Fatalf("campaign unhealthy: %d violated, %d failures", rep.Violated, len(rep.Failures))
	}
	if rep.Completed != c.Runs {
		t.Fatalf("completed %d of %d", rep.Completed, c.Runs)
	}
	// The repro of any failure would have carried the cluster driver tag.
	if sc := c.Generate(0); sc.Driver != chaos.DriverCluster {
		t.Fatalf("generated scenario driver %q", sc.Driver)
	}
}
