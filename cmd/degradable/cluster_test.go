package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"degradable/internal/chaos"
	"degradable/internal/cluster"
)

// TestParseFaults checks that -faults reads chaos.ParseFaults'
// node:kind[:value][:seed] grammar before any process is spawned: a good
// fault list gets past the fault parser (the bad -kill behind it is what
// stops the run) and every bad one is reported as a fault error.
func TestParseFaults(t *testing.T) {
	var out bytes.Buffer
	err := clusterRun(t, []string{"-faults", "2:twofaced:999,4:silent,1:random:0:42", "-kill", "x"}, &out)
	if err == nil || !strings.Contains(err.Error(), "bad kill") {
		t.Fatalf("good -faults with bad -kill: got %v, want the kill error", err)
	}
	for _, bad := range []string{"2", "2:nope", "x:silent", "2:lie:x", "2:random:0:x"} {
		err := clusterRun(t, []string{"-faults", bad}, &out)
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("-faults %q: got %v, want a fault error", bad, err)
		}
	}
}

// TestClusterFlagConflicts checks the flags that describe one instance are
// rejected with -campaign, and -crashes without it, before any process is
// spawned.
func TestClusterFlagConflicts(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-campaign", "1", "-faults", "2:silent"}, "-faults does not apply with -campaign"},
		{[]string{"-campaign", "1", "-kill", "2:1"}, "-kill does not apply with -campaign"},
		{[]string{"-campaign", "1", "-sender", "1"}, "-sender does not apply with -campaign"},
		{[]string{"-campaign", "1", "-value", "7"}, "-value does not apply with -campaign"},
		{[]string{"-crashes", "2"}, "-crashes 2 requires -campaign"},
		{[]string{"-crashes", "0"}, "-crashes 0 requires -campaign"},
	} {
		var out bytes.Buffer
		err := clusterRun(t, append([]string{"-n", "4", "-m", "1", "-u", "1"}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("cluster %v = %v, want error containing %q", tc.args, err, tc.want)
		}
	}
}

// TestClusterCampaignCheckpointDir checks a campaign's scenarios write their
// checkpoints under -ckpt-dir instead of ignoring it.
func TestClusterCampaignCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := clusterRun(t, []string{"-n", "4", "-m", "1", "-u", "1", "-campaign", "1",
		"-ckpt-dir", dir, "-deadline", "2s"}, &out); err != nil {
		t.Fatalf("campaign: %v\n%s", err, out.String())
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Errorf("campaign wrote no checkpoints under -ckpt-dir:\n%s", out.String())
	}
}

// TestParseKills covers the node:round[:phase][:mod] crash-schedule syntax.
func TestParseKills(t *testing.T) {
	got, err := parseKills("2:1,3:2:closed,4:2:sent:bitflip,5:1:norestart")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d kills, want 4", len(got))
	}
	if got[0].Node != 2 || got[0].Round != 1 || got[0].Phase != "" {
		t.Errorf("kill 0 = %+v", got[0])
	}
	if got[1].Phase != chaos.CrashPhaseClosed {
		t.Errorf("kill 1 = %+v", got[1])
	}
	if got[2].Phase != chaos.CrashPhaseSent || got[2].Corrupt != chaos.CorruptBitFlip {
		t.Errorf("kill 2 = %+v", got[2])
	}
	if !got[3].NoRestart {
		t.Errorf("kill 3 = %+v", got[3])
	}
	for _, bad := range []string{"2", "x:1", "2:x", "2:1:spin", "2:1:sent:zero", "2:1:sent:bitflip:extra"} {
		if _, err := parseKills(bad); err == nil {
			t.Errorf("parseKills(%q) accepted", bad)
		}
	}
}

// TestClusterCommandCrashRecovery drives the binary's kill/restart path:
// a real SIGKILL at a round boundary, the convergence taxonomy and the
// recovery counters in the -json report. The text line is grep-gated by
// scripts/check.sh and the recovery-smoke CI job.
func TestClusterCommandCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	rep := runJSON(t, []string{"-n", "5", "-m", "1", "-u", "2", "-kill", "2:1:sent", "-deadline", "1500ms"})
	if rep.Recovery == nil || rep.Recovery.Restarts != 1 {
		t.Fatalf("recovery = %+v", rep.Recovery)
	}
	if got := rep.Obs.Counter("checkpoints_total"); got == 0 {
		t.Error("no checkpoints written")
	}
	if !strings.HasPrefix(rep.Convergence, "Converged-in-") {
		t.Errorf("convergence %q", rep.Convergence)
	}
}

// TestClusterCommandEndToEnd drives the binary's single-run path: real node
// processes, a spec verdict, and the round waits in the -json report.
func TestClusterCommandEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	rep := runJSON(t, []string{"-n", "5", "-m", "1", "-u", "2", "-faults", "2:twofaced:999", "-deadline", "10s"})
	if !rep.Verdict.OK || rep.RoundWaitMax() <= 0 {
		t.Errorf("verdict %+v, round wait max %v", rep.Verdict, rep.RoundWaitMax())
	}
}

// clusterRun runs `degradable cluster` with args, writing to out.
func clusterRun(t *testing.T, args []string, out io.Writer) error {
	t.Helper()
	return runTo(t, out, append([]string{"cluster"}, args...)...)
}

// runJSON runs the subcommand with -json and decodes its report.
func runJSON(t *testing.T, args []string) *cluster.Report {
	t.Helper()
	var out bytes.Buffer
	if err := clusterRun(t, append(args, "-json"), &out); err != nil {
		t.Fatalf("run -json: %v\n%s", err, out.String())
	}
	var rep cluster.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json report: %v\n%s", err, out.String())
	}
	return &rep
}
