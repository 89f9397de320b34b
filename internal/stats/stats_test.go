package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || s.Mean != 5 || s.Min != 5 || s.Max != 5 || s.Std != 0 {
		t.Errorf("single summary = %+v", s)
	}
	if s.P50 != 5 || s.P95 != 5 || s.P99 != 5 {
		t.Errorf("percentiles = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Std = %v", s.Std)
	}
	if s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary = %+v", s)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if s.P50 != 5 {
		t.Errorf("P50 of {0,10} = %v, want 5", s.P50)
	}
}

// TestSummarizeTwo pins the N=2 edge: every percentile interpolates on the
// single [lo, hi] segment, and P95/P99 land near (not at) the max.
func TestSummarizeTwo(t *testing.T) {
	s := Summarize([]float64{0, 100})
	if s.N != 2 || s.Min != 0 || s.Max != 100 || s.Mean != 50 {
		t.Errorf("summary = %+v", s)
	}
	if s.P50 != 50 {
		t.Errorf("P50 = %v, want 50", s.P50)
	}
	if math.Abs(s.P95-95) > 1e-12 {
		t.Errorf("P95 = %v, want 95", s.P95)
	}
	if math.Abs(s.P99-99) > 1e-12 {
		t.Errorf("P99 = %v, want 99", s.P99)
	}
	if math.Abs(s.Std-math.Sqrt(5000)) > 1e-9 {
		t.Errorf("Std = %v", s.Std)
	}
}

// TestSummarizeAllEqual checks a constant sample: zero spread, every
// percentile equal to the constant, no NaNs from the variance path.
func TestSummarizeAllEqual(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 101} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 7.5
		}
		s := Summarize(xs)
		if s.Mean != 7.5 || s.Min != 7.5 || s.Max != 7.5 {
			t.Errorf("n=%d: summary = %+v", n, s)
		}
		if s.Std != 0 {
			t.Errorf("n=%d: Std = %v, want 0", n, s.Std)
		}
		if s.P50 != 7.5 || s.P95 != 7.5 || s.P99 != 7.5 {
			t.Errorf("n=%d: percentiles = %+v", n, s)
		}
	}
}

// TestPercentileTinySamples pins P99 on samples too small for a distinct
// 99th percentile: it interpolates toward the max and never exceeds it,
// for every tiny N (the cluster report calls Summarize on whatever the
// run produced, including near-empty runs).
func TestPercentileTinySamples(t *testing.T) {
	for n := 1; n <= 5; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1) // 1..n, already sorted
		}
		s := Summarize(xs)
		if s.P99 > s.Max {
			t.Errorf("n=%d: P99 = %v exceeds max %v", n, s.P99, s.Max)
		}
		if s.P99 < s.P95 || s.P95 < s.P50 {
			t.Errorf("n=%d: percentiles not monotone: %+v", n, s)
		}
		// With n points the P99 position is 0.99·(n-1); it must land in
		// the top segment.
		if n > 1 && s.P99 < float64(n-1) {
			t.Errorf("n=%d: P99 = %v below the top segment", n, s.P99)
		}
	}
	// Unsorted input must not change the answer.
	a := Summarize([]float64{3, 1, 2})
	b := Summarize([]float64{1, 2, 3})
	if a != b {
		t.Errorf("order-dependent summaries: %+v vs %+v", a, b)
	}
}

// Property: Min ≤ P50 ≤ Max and Min ≤ Mean ≤ Max for any non-empty sample.
func TestSummaryBoundsQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	if c.Total() != 0 || c.Fraction("x") != 0 {
		t.Error("fresh counter not zero")
	}
	c.Add("correct")
	c.Add("correct")
	c.Add("default")
	if c.Get("correct") != 2 || c.Get("default") != 1 || c.Get("unsafe") != 0 {
		t.Error("counts wrong")
	}
	if c.Total() != 3 {
		t.Errorf("Total = %d", c.Total())
	}
	if math.Abs(c.Fraction("correct")-2.0/3.0) > 1e-12 {
		t.Errorf("Fraction = %v", c.Fraction("correct"))
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "correct" || names[1] != "default" {
		t.Errorf("Names = %v", names)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Minimum nodes", "u", "m=0", "m=1")
	tb.AddRow(1, 2, 4)
	tb.AddRow(2, 3, 5)
	out := tb.String()
	if !strings.Contains(out, "Minimum nodes") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "m=0") {
		t.Error("missing header")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + separator + 2 rows
	if len(lines) != 5 {
		t.Errorf("lines = %d:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.0)
	tb.AddRow(0.333333333)
	out := tb.String()
	if !strings.Contains(out, "3") || strings.Contains(out, "3.0000") {
		t.Errorf("integral float rendering:\n%s", out)
	}
	if !strings.Contains(out, "0.3333") {
		t.Errorf("fraction rendering:\n%s", out)
	}
}

func TestTableAlignment(t *testing.T) {
	tb := NewTable("", "name", "value")
	tb.AddRow("a", 1)
	tb.AddRow("longer-name", 22)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// All lines should be the same width after padding (modulo trailing
	// spaces on the final column, which pad() adds consistently).
	w := len(lines[0])
	for _, ln := range lines[1:] {
		if len(ln) != w {
			t.Errorf("ragged table:\n%s", out)
			break
		}
	}
}

func TestTableNoHeaders(t *testing.T) {
	tb := NewTable("t")
	tb.AddRow("x")
	if !strings.Contains(tb.String(), "x") {
		t.Error("row missing")
	}
}
