package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"degradable/internal/cluster"
)

// TestMain mirrors main(): the cluster launcher re-executes this test
// binary as the node executable (cluster runs and cluster-driver chaos
// replays), and those children must divert into the node loop.
func TestMain(m *testing.M) {
	cluster.Hijack()
	os.Exit(m.Run())
}

// runTo runs one subcommand the way dispatch does, writing to out.
func runTo(t *testing.T, out io.Writer, args ...string) error {
	t.Helper()
	for _, c := range commands {
		if c.name == args[0] {
			return c.run(args[1:], out)
		}
	}
	t.Fatalf("no subcommand %q", args[0])
	return nil
}

// runSub runs one subcommand and returns its output.
func runSub(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := runTo(t, &out, args...)
	return out.String(), err
}

// flagNames returns every flag name registered on fs, in sorted order.
func flagNames(fs *flag.FlagSet) []string {
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// helpFlags pins each subcommand's flag surface.
var helpFlags = map[string][]string{
	"experiments": {"list", "markdown", "only", "seed"},
	"degrade":     {"explain", "faults", "m", "n", "trace", "u", "value"},
	"netinfo":     {"graph"},
	"chaos": {"async", "async-runs", "async-sweep", "graph", "grid", "infeasible", "json",
		"max-injectors", "placement", "replay", "runs", "sched", "seed", "shrink",
		"topo-runs", "topo-sweep", "trace"},
	"cluster": {"campaign", "ckpt-dir", "crashes", "deadline", "faults", "grace", "json",
		"kill", "m", "n", "seed", "sender", "trace", "u", "value"},
	"node": {"listen", "pprof"},
	"serve": {"addr", "batch", "grace", "idle-timeout", "pprof", "queue", "read-timeout",
		"shards", "spec-sample", "trace", "write-timeout"},
	"router": {"addr", "backends", "conns-per-backend", "grace", "load-factor", "pprof",
		"quota", "trace", "vnodes"},
}

// checkHelp checks that subcommand name registers exactly its pinned flags
// and that -h documents all of them: a flag added without usage text, or
// renamed in one subcommand only, fails here.
func checkHelp(t *testing.T, name string) {
	t.Helper()
	for _, c := range commands {
		if c.name != name {
			continue
		}
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs)
		names := flagNames(fs)
		if !slices.Equal(names, helpFlags[c.name]) {
			t.Errorf("%s flags = %v, want %v", c.name, names, helpFlags[c.name])
		}
		out, err := runSub(t, c.name, "-h")
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h: got %v, want flag.ErrHelp", c.name, err)
		}
		for _, name := range names {
			if !strings.Contains(out, "-"+name) {
				t.Errorf("%s -h output missing flag -%s:\n%s", c.name, name, out)
			}
		}
		return
	}
	t.Fatalf("no subcommand %q", name)
}

// TestHelpListsEveryFlag checks the analysis subcommands' -h and that every
// subcommand has a pinned flag surface; the service and campaign
// subcommands have a test each below.
func TestHelpListsEveryFlag(t *testing.T) {
	for _, name := range []string{"experiments", "degrade", "netinfo"} {
		checkHelp(t, name)
	}
	for _, c := range commands {
		if _, ok := helpFlags[c.name]; !ok {
			t.Errorf("subcommand %s has no pinned flag surface", c.name)
		}
	}
	if len(helpFlags) != len(commands) {
		t.Errorf("%d subcommands, want %d", len(commands), len(helpFlags))
	}
}

func TestChaosHelpListsEveryFlag(t *testing.T)   { checkHelp(t, "chaos") }
func TestClusterHelpListsEveryFlag(t *testing.T) { checkHelp(t, "cluster") }
func TestNodeHelpListsEveryFlag(t *testing.T)    { checkHelp(t, "node") }
func TestServeHelpListsEveryFlag(t *testing.T)   { checkHelp(t, "serve") }
func TestRouterHelpListsEveryFlag(t *testing.T)  { checkHelp(t, "router") }

// TestDispatch checks the exit statuses: 2 and the subcommand list for a
// missing or unknown subcommand, 0 for -h, 1 for a failing run.
func TestDispatch(t *testing.T) {
	// A lying broadcaster with D.1 pinned: the replay misses its expectation.
	const failing = `{"n":4,"seed":5,"driver":"async","sched":"adversarial",` +
		`"faults":[{"node":0,"kind":3,"value":2002}],"expect":{"condition":"D.1"}}`
	for _, tt := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{"minnodes"}, 2},
		{[]string{"netinfo", "-h"}, 0},
		{[]string{"netinfo", "-graph", "nope:1"}, 1},
		{[]string{"chaos", "-h"}, 0},
		{[]string{"cluster", "-h"}, 0},
		{[]string{"node", "-h"}, 0},
		{[]string{"serve", "-h"}, 0},
		{[]string{"router", "-h"}, 0},
		{[]string{"chaos", "-shrink=false", "-replay", failing}, 1},
	} {
		var out, errOut bytes.Buffer
		if got := dispatch(tt.args, &out, &errOut); got != tt.want {
			t.Errorf("dispatch(%q) = %d, want %d (stderr %q)", tt.args, got, tt.want, errOut.String())
		}
		if tt.want == 2 {
			for _, c := range commands {
				if !strings.Contains(errOut.String(), c.name) {
					t.Errorf("dispatch(%q) usage missing %s:\n%s", tt.args, c.name, errOut.String())
				}
			}
		}
	}
}

func TestExperimentsSingleText(t *testing.T) {
	out, err := runSub(t, "experiments", "-only", "E3")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== E3", "Figure 2", "[PASS]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "E1") {
		t.Error("-only E3 should not run E1")
	}
}

func TestExperimentsSingleMarkdown(t *testing.T) {
	out, err := runSub(t, "experiments", "-markdown", "-only", "E5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## E5", "```text", "- [x]"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown output missing %q:\n%s", want, out)
		}
	}
}

// TestExperimentsUnknownIDErrors checks a typo'd -only fails, names the
// valid IDs, and runs nothing.
func TestExperimentsUnknownIDErrors(t *testing.T) {
	out, err := runSub(t, "experiments", "-only", "E99")
	if err == nil {
		t.Fatal("unknown -only accepted")
	}
	for _, want := range []string{`"E99"`, "E1, E2", "E16"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if out != "" {
		t.Errorf("unknown -only printed output:\n%s", out)
	}
}

// TestExperimentsMarkdownMatchesDoc holds EXPERIMENTS.md, from its first
// "## E1" line on, to the -markdown output at the default seed 42.
func TestExperimentsMarkdownMatchesDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(doc, []byte("\n## E1 "))
	if i < 0 {
		t.Fatal("EXPERIMENTS.md has no ## E1 section")
	}
	out, err := runSub(t, "experiments", "-markdown")
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimRight(out, "\n")
	want := strings.TrimRight(string(doc[i+1:]), "\n")
	if got != want {
		t.Errorf("EXPERIMENTS.md is stale: regenerate it with `go run ./cmd/degradable experiments -markdown`\n"+
			"(first difference at byte %d)", firstDiff(got, want))
	}
}

func firstDiff(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func TestDegradeEndToEnd(t *testing.T) {
	out, err := runSub(t, "degrade", "-n", "5", "-m", "1", "-u", "2", "-faults", "3:silent")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node 3 [receiver] (FAULTY)", "condition D.1: SATISFIED", "graceful"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDegradeErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "4", "-m", "1", "-u", "2"},        // undersized system
		{"-faults", "bogus"},                     // bad fault syntax
		{"-faults", "3:silent,3:lie:9"},          // node armed twice
		{"-faults", "7:silent"},                  // fault node out of range
		{"-explain", "x"},                        // bad -explain
		{"-faults", "3:lie:99", "-explain", "3"}, // a faulty node resolves nothing
		{"-explain", "0"},                        // nor does the sender
		{"-notaflag"},
	} {
		if _, err := runSub(t, append([]string{"degrade"}, args...)...); err == nil {
			t.Errorf("degrade %q accepted", args)
		}
	}
}

// TestDegradeExplainsTheTracedRun checks -explain renders the execution
// -trace printed: a random fault draws from its own rng, so a second run of
// the same strategies would replay a different execution. Every traced
// last-round claim delivered to an explained receiver must appear with the
// same value in that receiver's resolution.
func TestDegradeExplainsTheTracedRun(t *testing.T) {
	out, err := runSub(t, "degrade", "-n", "5", "-m", "1", "-u", "2",
		"-faults", "3:random:5:7,4:random:9:3", "-explain", "all", "-trace")
	if err != nil {
		t.Fatal(err)
	}
	blocks := map[string]string{} // receiver → its resolution block
	for _, b := range strings.Split(out, "resolution for receiver ")[1:] {
		id, _, _ := strings.Cut(b, " ")
		blocks[id] = b
	}
	if len(blocks) != 2 {
		t.Fatalf("explained %d receivers, want the 2 fault-free ones:\n%s", len(blocks), out)
	}
	delivery := regexp.MustCompile(`(?m)^  round 2  \d+ → (\d+)  claim \[([^\]]+)\] = (\S+)$`)
	checked := 0
	for _, d := range delivery.FindAllStringSubmatch(out, -1) {
		block, ok := blocks[d[1]]
		if !ok {
			continue // the sender and faulty receivers are not explained
		}
		leaf := "[" + d[2] + "] = " + d[3]
		if !regexp.MustCompile(`(?m)^ +` + regexp.QuoteMeta(leaf) + `( \(absent\))?$`).MatchString(block) {
			t.Errorf("receiver %s was delivered %s, but its resolution says otherwise:\n%s", d[1], leaf, block)
		}
		checked++
	}
	if checked != 6 {
		t.Errorf("checked %d deliveries, want 6 (3 relayers into each of 2 receivers):\n%s", checked, out)
	}
	// Each explained outcome is the decision the run reported.
	for id, block := range blocks {
		decided := regexp.MustCompile(`(?m)^node ` + id + ` \[receiver\] decided (\S+)$`).FindStringSubmatch(out)
		outcome := regexp.MustCompile(`→ (\S+)$`).FindStringSubmatch(strings.TrimRight(block, "\n"))
		if decided == nil || outcome == nil || outcome[1] != decided[1] {
			t.Errorf("receiver %s: explained outcome %v, decision %v:\n%s", id, outcome, decided, block)
		}
	}
}

// TestAlgorithmDocTrace holds the documented -explain text to the CLI:
// docs/ALGORITHM.md's worked-trace block must appear verbatim in the output
// of the command the doc gives for it, and README's traced -explain run
// must equal its golden.
func TestAlgorithmDocTrace(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ALGORITHM.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)`go run ./cmd/degradable (degrade [^`]*)`:\n\n```\n.*?\n(resolution for receiver 1 .*?)```").
		FindSubmatch(doc)
	if m == nil {
		t.Fatal("docs/ALGORITHM.md has no worked trace with a resolution for receiver 1")
	}
	out, err := runSub(t, strings.Fields(string(m[1]))...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, string(m[2])) {
		t.Errorf("docs/ALGORITHM.md's worked trace is stale; `%s` prints:\n%s", m[1], out)
	}

	golden, err := os.ReadFile("testdata/explain_lie99_trace.golden")
	if err != nil {
		t.Fatal(err)
	}
	out, err = runSub(t, "degrade", "-n", "5", "-m", "1", "-u", "2", "-faults", "3:lie:99", "-explain", "1", "-trace")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("README's -explain run drifted from testdata/explain_lie99_trace.golden (first difference at byte %d):\n%s",
			firstDiff(out, string(golden)), out)
	}
}

func TestNetinfoHarary(t *testing.T) {
	out, err := runSub(t, "netinfo", "-graph", "harary:4:9")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "κ=4") {
		t.Errorf("missing connectivity:\n%s", out)
	}
	if !strings.Contains(out, "sample disjoint paths") {
		t.Error("missing path section")
	}
}

func TestNetinfoBridge(t *testing.T) {
	out, err := runSub(t, "netinfo", "-graph", "bridge:3:4:3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "κ=4") {
		t.Errorf("bridge connectivity wrong:\n%s", out)
	}
}

func TestNetinfoAllFamilies(t *testing.T) {
	for _, graph := range []string{"complete:6", "ring:6", "hypercube:3"} {
		if _, err := runSub(t, "netinfo", "-graph", graph); err != nil {
			t.Errorf("%s: %v", graph, err)
		}
	}
}

func TestNetinfoErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-graph", "nope:1"},     // unknown family
		{"-graph", "harary:3:7"}, // infeasible harary
		{"-bogus"},
	} {
		if _, err := runSub(t, append([]string{"netinfo"}, args...)...); err == nil {
			t.Errorf("netinfo %q accepted", args)
		}
	}
}
