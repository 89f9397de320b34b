package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"degradable/internal/chaos"
	"degradable/internal/types"
)

// TestCheckpointRoundTrip exercises the checkpoint file format directly:
// a written body reads back exactly, and every corruption mode is caught by
// the layer it targets (CRC, framing, or the restore-coordinate check).
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := CheckpointPath(dir, 3)
	body := &checkpointBody{
		ID: 3, N: 7, M: 2, U: 2, Sender: 0,
		Round: 2, Phase: chaos.CrashPhaseClosed,
		Tree:  []byte("not a real tree, framing only"),
		Inbox: []types.Message{{From: 1, To: 3, Round: 2, Value: 1001}},
		Held:  []heldRound{{Round: 3, Peers: []types.NodeID{1, 4}}},
	}
	if _, err := writeCheckpoint(path, body); err != nil {
		t.Fatal(err)
	}
	got, err := readCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != body.ID || got.Round != body.Round || got.Phase != body.Phase ||
		string(got.Tree) != string(body.Tree) || len(got.Inbox) != 1 || len(got.Held) != 1 {
		t.Fatalf("round trip mutated the body: %+v", got)
	}

	if _, err := readCheckpoint(CheckpointPath(dir, 9)); !os.IsNotExist(err) {
		t.Fatalf("missing checkpoint: err = %v, want IsNotExist", err)
	}

	for _, mode := range []string{chaos.CorruptBitFlip, chaos.CorruptTruncate} {
		if _, err := writeCheckpoint(path, body); err != nil {
			t.Fatal(err)
		}
		if err := CorruptCheckpoint(path, mode, 0); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if _, err := readCheckpoint(path); err == nil {
			t.Fatalf("%s-corrupted checkpoint read back cleanly", mode)
		}
	}

	// Stale keeps the bytes valid — only the recorded coordinates lie.
	if _, err := writeCheckpoint(path, body); err != nil {
		t.Fatal(err)
	}
	if err := CorruptCheckpoint(path, chaos.CorruptStale, 1); err != nil {
		t.Fatal(err)
	}
	stale, err := readCheckpoint(path)
	if err != nil {
		t.Fatalf("stale checkpoint must stay readable (the restore-coordinate check catches it): %v", err)
	}
	if stale.Round != 1 || stale.Phase != chaos.CrashPhaseClosed || stale.Inbox != nil {
		t.Fatalf("stale rewrite produced %+v", stale)
	}

	// Tearing the temp file must never replace a good checkpoint: write is
	// atomic via rename.
	if raw, err := os.ReadFile(path); err != nil || len(raw) == 0 {
		t.Fatalf("checkpoint vanished: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, filepath.Base(e.Name()))
		}
		t.Fatalf("unexpected files in checkpoint dir: %v", names)
	}
}

// runCrash executes one cluster run with the given crash schedule and a
// roomy context.
func runCrash(t *testing.T, crashes []chaos.CrashSpec, deadline time.Duration) *Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	rep, err := Run(ctx, Config{
		N: 5, M: 1, U: 2, Sender: 0, SenderValue: 1001,
		Seed: 7, Deadline: deadline, Crashes: crashes,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// deadlineCounters renders each node's round-deadline evidence: a node that
// closed a round at its deadline before a batch arrived counts a deadline
// miss, and the batch that came after counts late.
func deadlineCounters(rep *Report) string {
	var b strings.Builder
	for id, nr := range rep.Nodes {
		if nr == nil {
			fmt.Fprintf(&b, "node %d: no report\n", id)
			continue
		}
		fmt.Fprintf(&b, "node %d: deadline_misses_total=%d late_batches_total=%d\n",
			id, nr.Obs.Counter("deadline_misses_total"), nr.Obs.Counter("late_batches_total"))
	}
	return b.String()
}

// TestCrashRestartConverges SIGKILLs a node mid-round and asserts the
// survivors' verdict still passes the spec while the victim restarts,
// restores its checkpoint, and lands in the convergence taxonomy within the
// m+1 bound.
func TestCrashRestartConverges(t *testing.T) {
	victim := types.NodeID(2)
	rep := runCrash(t, []chaos.CrashSpec{
		{Node: victim, Round: 1, Phase: chaos.CrashPhaseSent},
	}, 1500*time.Millisecond)

	if !rep.Verdict.OK {
		t.Fatalf("spec violated across the crash: %s\n%s", rep.Verdict.Reason, deadlineCounters(rep))
	}
	if rep.Recovery == nil {
		t.Fatal("no recovery info on a crash run")
	}
	if rep.Recovery.Restarts != 1 || rep.Recovery.Unrecovered != 0 {
		t.Fatalf("recovery %+v, want one restarted victim", rep.Recovery)
	}
	if rep.Recovery.LostRounds > 2 { // m+1
		t.Fatalf("lost %d rounds, beyond m+1", rep.Recovery.LostRounds)
	}
	if !strings.HasPrefix(rep.Convergence, "Converged-in-") {
		t.Fatalf("convergence %q", rep.Convergence)
	}
	nr := rep.Nodes[int(victim)]
	if nr == nil || nr.Recovery == nil {
		t.Fatal("victim's final report carries no recovery record")
	}
	if nr.Recovery.Incarnation != 1 || nr.Recovery.Source != "checkpoint" {
		t.Fatalf("victim restored %+v, want incarnation 1 from checkpoint", nr.Recovery)
	}
	if got := rep.Obs.Counter("restart_total"); got != 1 {
		t.Fatalf("restart_total = %d", got)
	}
	if rep.Obs.Counter("checkpoints_total") == 0 {
		t.Fatal("no checkpoints written")
	}
	if rep.Obs.Histograms[ConvergenceHist].Count != 1 {
		t.Fatalf("convergence histogram %+v, want one observation", rep.Obs.Histograms[ConvergenceHist])
	}
}

// TestCrashCorruptCheckpointRejected damages the victim's checkpoint between
// kill and respawn; the restore must reject it (counter evidence) and fall
// back to the V_d-safe re-initialization, still converging.
func TestCrashCorruptCheckpointRejected(t *testing.T) {
	cases := []struct {
		mode    string
		source  string
		counter string
	}{
		{chaos.CorruptBitFlip, "corrupt", "checkpoint_corrupt_total"},
		{chaos.CorruptTruncate, "corrupt", "checkpoint_corrupt_total"},
		{chaos.CorruptStale, "stale", "checkpoint_stale_total"},
	}
	for _, tc := range cases {
		t.Run(tc.mode, func(t *testing.T) {
			victim := types.NodeID(3)
			rep := runCrash(t, []chaos.CrashSpec{
				{Node: victim, Round: 2, Phase: chaos.CrashPhaseSent, Corrupt: tc.mode},
			}, 1500*time.Millisecond)

			if !rep.Verdict.OK {
				t.Fatalf("spec violated: %s", rep.Verdict.Reason)
			}
			if got := rep.Obs.Counter(tc.counter); got != 1 {
				t.Fatalf("%s = %d, want 1 (the restore must reject, never import)", tc.counter, got)
			}
			nr := rep.Nodes[int(victim)]
			if nr == nil || nr.Recovery == nil || nr.Recovery.Source != tc.source {
				t.Fatalf("victim recovery %+v, want source %q", nr.Recovery, tc.source)
			}
			if rep.Recovery.LostRounds > 2 {
				t.Fatalf("re-init lost %d rounds, beyond m+1", rep.Recovery.LostRounds)
			}
			if !strings.HasPrefix(rep.Convergence, "Converged-in-") {
				t.Fatalf("convergence %q", rep.Convergence)
			}
		})
	}
}

// TestCrashNoRestartNeverConverges leaves the victim dead: the run must
// classify NeverConverged while the survivors' agreement still holds (the
// victim's silence is a detectable absence, V_d-substituted).
func TestCrashNoRestartNeverConverges(t *testing.T) {
	victim := types.NodeID(4)
	rep := runCrash(t, []chaos.CrashSpec{
		{Node: victim, Round: 1, Phase: chaos.CrashPhaseClosed, NoRestart: true},
	}, 2*time.Second)

	if !rep.Verdict.OK {
		t.Fatalf("spec violated by a permanent benign fault: %s", rep.Verdict.Reason)
	}
	if rep.Convergence != chaos.NeverConverged {
		t.Fatalf("convergence %q, want %q", rep.Convergence, chaos.NeverConverged)
	}
	if rep.Recovery.Unrecovered != 1 || rep.Recovery.Restarts != 0 {
		t.Fatalf("recovery %+v", rep.Recovery)
	}
	if rep.Nodes[int(victim)] != nil {
		t.Fatal("a permanently dead victim produced a report")
	}
	if _, ok := rep.Result.Decisions[victim]; ok {
		t.Fatal("a dead victim decided")
	}
}

// TestCrashScenarioThroughExecutor drives a crash schedule through the
// chaos scenario machinery against real processes: the judged outcome must
// meet expectations and carry the taxonomy label.
func TestCrashScenarioThroughExecutor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sc := chaos.Scenario{
		N: 5, M: 1, U: 2, Seed: 11, Driver: chaos.DriverCluster,
		Crashes: []chaos.CrashSpec{{Node: 2, Round: 2, Phase: chaos.CrashPhaseSent}},
	}
	out, err := sc.RunWith(Executor(ctx, 1500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if !out.ExpectationMet {
		t.Fatalf("expectation missed: %s", out.ExpectReason)
	}
	if out.Recovery == nil || out.Recovery.Restarts != 1 {
		t.Fatalf("executor recovery %+v", out.Recovery)
	}
	if !strings.HasPrefix(out.Convergence, "Converged-in-") {
		t.Fatalf("convergence %q", out.Convergence)
	}
}
