package round

import (
	"fmt"
	"testing"

	"degradable/internal/types"
)

var benchSpecs = []string{"fifo", "reorder", "delay", "adversarial", "starve:2"}

// steadyScheduler builds a scheduler holding q sends whose buffers have
// reached their steady-state size and returns the step that keeps it there:
// one Enqueue, one Next.
func steadyScheduler(tb testing.TB, spec string, q int) func() {
	p, err := ParsePolicy(spec, 42)
	if err != nil {
		tb.Fatal(err)
	}
	s := NewScheduler(p)
	i := 0
	enqueue := func() {
		// starve:2 must always have something it may deliver: To cycles 1, 3.
		s.Enqueue(types.Message{To: types.NodeID(1 + 2*(i&1)), Value: types.Value(i)})
		i++
	}
	for s.Len() < q {
		enqueue()
	}
	step := func() {
		enqueue()
		if _, ok := s.Next(); !ok {
			tb.Fatalf("%s: Next refused at queue length %d", spec, s.Len())
		}
	}
	for w := 0; w < 4*q; w++ {
		step()
	}
	return step
}

// BenchmarkSchedulerNext pins the cost of one policy-chosen delivery at a
// held queue length: what the async driver pays per delivery beyond the
// protocol handlers.
func BenchmarkSchedulerNext(b *testing.B) {
	for _, spec := range benchSpecs {
		for _, q := range []int{32, 1024, 8192} {
			b.Run(fmt.Sprintf("%s/q=%d", spec, q), func(b *testing.B) {
				step := steadyScheduler(b, spec, q)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}

// TestSchedulerSteadyStateAllocs: a warm scheduler holding its queue length
// allocates nothing per delivery.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	const q = 1024
	for _, spec := range benchSpecs {
		step := steadyScheduler(t, spec, q)
		if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
			t.Errorf("%s: %v allocs per Enqueue+Next at q=%d, want 0", spec, allocs, q)
		}
	}
}
