package main

import (
	"io"
	"testing"
)

// TestInputsFollowTheSeed: equal seeds give byte-identical request
// streams, open-loop schedules, scenario sets and async run sets; another
// seed gives others.
func TestInputsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		var hashes [3]string
		for i, seed := range []int64{42, 42, 43} {
			in, err := genInputs(w, seed, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			if hashes[i], err = hashInputs(in); err != nil {
				t.Fatal(err)
			}
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: seed 42 generated two different input sets", w)
		}
		if hashes[0] == hashes[2] {
			t.Errorf("%s: seeds 42 and 43 generated the same input set", w)
		}
	}
}

// TestExactCountsRepeat: two traced passes with one seed agree on every
// count the program makes, to the last digit. Every suite runs in every
// traced pass, so one workload's pass covers every count.
func TestExactCountsRepeat(t *testing.T) {
	o := options{workload: "sim_async", seed: 5}
	var runs [2]result
	for i := range runs {
		var err error
		if runs[i], err = tracedPass(o, 1.0/32, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range exactCounts {
		a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
		if a != b || a <= 0 {
			t.Errorf("%s: %v then %v, want one positive count", name, a, b)
		}
	}
}
