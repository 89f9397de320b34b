package main

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatchesTables pins BENCHMARK.json to this package's tables:
// the same workloads, and the same metric names and units, in the same
// order, so a run can never emit a name the manifest does not declare.
func TestManifestMatchesTables(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest declares %d workloads, the package runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: manifest %q, package %q", i, w.Name, workloads[i])
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest declares %d end-to-end metrics, the package emits %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].Name || e.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: manifest %s [%s], package %s [%s]", i, e.Name, e.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if !name.MatchString(e.Name) || e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("end-to-end %s: bad name, bound %v or direction %q", e.Name, e.Bound, e.Better)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest declares %d per-layer metrics, the package emits %d", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].Name || e.Unit != perLayer[i].Unit || !name.MatchString(e.Name) {
			t.Errorf("per-layer %d: manifest %s [%s], package %s [%s]", i, e.Name, e.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
	for _, c := range exactCounts {
		layer(c) // panics on an undeclared name
	}
}

// checkResult asserts a run emitted exactly the declared metrics, each
// finite, and failed nothing.
func checkResult(t *testing.T, what string, res result, declared []metricDef, positive bool) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is %v", what, d.Name, m.Value)
		case positive && m.Value <= 0:
			t.Errorf("%s: %s is %v, want a positive measurement", what, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload in process with a 300 ms window and a tiny
// traced pass: a benchmark that cannot run fails here, not in the pipeline.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		o := options{workload: w, seed: 11, seconds: 0.3}
		res, err := measure(o, 1.0/32, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		checkResult(t, w, res, endToEnd, true)
		res, err = tracedPass(o, 1.0/64, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		checkResult(t, w+" traced", res, perLayer, false)
	}
}

// TestCommandLine covers the command's own failure modes: an unknown
// workload and a malformed -compare are one-line errors and a non-zero
// exit, never a hang or a result.
func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-seconds", "1"},
		{"-workload", "nope", "-trace", "1"},
		{"-compare", "only-one.json"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result: %s", args, stdout.String())
		}
	}
}
