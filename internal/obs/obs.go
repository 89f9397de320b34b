// Package obs is the repo's observability spine: one zero-dependency
// (stdlib-only) telemetry layer shared by the round engine, the serving
// runtime, the distributed cluster driver, and the chaos engine, so "how
// degraded are we right now?" has a single answer instead of four.
//
// The paper makes degradation a first-class runtime signal: §2's
// Observation guarantees that even with m < f ≤ u faults, at least m+1
// fault-free nodes agree on one value — so which D condition held (D.1/D.2
// full agreement versus D.3/D.4 degraded), how many receivers fell back to
// the default value V_d, and how much slack the m+1 floor had are health
// metrics of a running system, not post-hoc test assertions. This package
// carries exactly those signals:
//
//   - Counter, CounterSet, Sharded: allocation-free atomic counters. A
//     Sharded set gives each worker a cache-line-padded block (two 64-byte
//     lines, matching the spatial prefetcher's pairing granularity) so hot
//     increment loops never contend across shards.
//   - Histogram: fixed-bucket latency histograms. Observe takes a duration
//     the caller already measured — the package never calls time.Now on a
//     hot path — and is allocation-free.
//   - Tracer (trace.go): a ring-buffered structured round-event tracer
//     (round open/close, deadline miss, late batch, V_d substitution,
//     verdict class) behind the Sink interface the round engine accepts.
//   - Registry (registry.go): Prometheus-text /metrics and JSON
//     /debug/vars-style handlers over named views of the above.
//   - Snapshot (snapshot.go): the unified point-in-time schema serialized
//     into cluster node reports and the cmd/cluster -json report.
//
// Everything here is safe for concurrent use unless noted; snapshots are
// not atomic across metrics (writers keep running) but each value is
// individually consistent and monotone.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is an atomic monotonic counter. The zero value is ready to use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// MinGauge tracks the minimum value observed — e.g. the m+1-floor margin,
// which may go negative when the floor is violated. Construct with
// NewMinGauge; the zero value is not usable (an "unset" gauge is encoded
// as math.MaxInt64 so Observe stays a single lock-free CAS loop).
type MinGauge struct{ v atomic.Int64 }

// NewMinGauge returns an unset gauge.
func NewMinGauge() *MinGauge {
	g := &MinGauge{}
	g.v.Store(math.MaxInt64)
	return g
}

// Observe lowers the gauge to v if v is smaller than every value seen so
// far. Lock-free and allocation-free.
func (g *MinGauge) Observe(v int64) {
	for {
		cur := g.v.Load()
		if v >= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the minimum observed and whether anything was observed.
func (g *MinGauge) Load() (int64, bool) {
	v := g.v.Load()
	return v, v != math.MaxInt64
}

// CounterSet is a fixed set of named counters addressed by small integer
// index — the allocation-free middle ground between bare counters and a
// name-keyed map. Construct with NewCounterSet; indices are the positions
// of the names given there.
type CounterSet struct {
	names []string
	vals  []Counter
}

// NewCounterSet builds a set with one counter per name.
func NewCounterSet(names ...string) *CounterSet {
	return &CounterSet{names: names, vals: make([]Counter, len(names))}
}

// Add increments counter i by n.
func (s *CounterSet) Add(i int, n uint64) { s.vals[i].Add(n) }

// Inc increments counter i by one.
func (s *CounterSet) Inc(i int) { s.vals[i].Add(1) }

// Get returns counter i's value.
func (s *CounterSet) Get(i int) uint64 { return s.vals[i].Load() }

// Len returns the number of counters.
func (s *CounterSet) Len() int { return len(s.names) }

// Reset zeroes every counter. Counters are monotonic within a run; Reset is
// for pooled owners (e.g. a restarted round engine) that begin a new run on
// recycled state and must not be observed concurrently while resetting.
func (s *CounterSet) Reset() {
	for i := range s.vals {
		s.vals[i].v.Store(0)
	}
}

// Name returns counter i's name.
func (s *CounterSet) Name(i int) string { return s.names[i] }

// Snapshot returns the set as the unified snapshot schema.
func (s *CounterSet) Snapshot() Snapshot {
	snap := Snapshot{Counters: make(map[string]uint64, len(s.names))}
	for i, name := range s.names {
		snap.Counters[name] = s.vals[i].Load()
	}
	return snap
}

// BlockCounters is the per-block counter capacity of a Sharded set: 16
// 8-byte counters fill exactly two 64-byte cache lines, so consecutive
// blocks in the backing slice never share a line (nor a prefetcher pair)
// and per-shard increment loops stay contention-free.
const BlockCounters = 16

// Block is one shard's padded slice of a Sharded counter set. All methods
// are safe for concurrent use, but the intended discipline is single-writer:
// each shard increments only its own block.
type Block struct {
	c [BlockCounters]Counter
}

// Add increments the block's counter i by n.
func (b *Block) Add(i int, n uint64) { b.c[i].Add(n) }

// Inc increments the block's counter i by one.
func (b *Block) Inc(i int) { b.c[i].Add(1) }

// Load returns the block's counter i.
func (b *Block) Load(i int) uint64 { return b.c[i].Load() }

// Sharded is a set of named counters where every shard owns a padded Block
// and readers sum across shards: the false-sharing-free layout the serving
// runtime's per-shard stat blocks used, generalized.
type Sharded struct {
	names  []string
	blocks []Block
}

// NewSharded builds a sharded set with one padded block per shard. It
// panics if more than BlockCounters names are given (the fixed block size
// is what makes increments allocation- and contention-free).
func NewSharded(shards int, names ...string) *Sharded {
	if len(names) > BlockCounters {
		panic("obs: too many counters for a sharded block")
	}
	if shards < 1 {
		shards = 1
	}
	return &Sharded{names: names, blocks: make([]Block, shards)}
}

// Shard returns shard i's block.
func (s *Sharded) Shard(i int) *Block { return &s.blocks[i] }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.blocks) }

// Sum totals counter i across shards.
func (s *Sharded) Sum(i int) uint64 {
	var total uint64
	for b := range s.blocks {
		total += s.blocks[b].c[i].Load()
	}
	return total
}

// Snapshot returns the summed counters as the unified snapshot schema.
func (s *Sharded) Snapshot() Snapshot {
	snap := Snapshot{Counters: make(map[string]uint64, len(s.names))}
	for i, name := range s.names {
		snap.Counters[name] = s.Sum(i)
	}
	return snap
}

// DefaultBuckets is the default histogram bucket layout: exponential
// (powers of four) from 1µs to 16s, which brackets everything from the
// sequential engine's ~15µs instances to multi-second cluster round
// deadlines. The implicit final bucket catches everything above.
var DefaultBuckets = []time.Duration{
	1 * time.Microsecond, 4 * time.Microsecond, 16 * time.Microsecond,
	64 * time.Microsecond, 256 * time.Microsecond,
	1 * time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond,
	64 * time.Millisecond, 256 * time.Millisecond,
	1 * time.Second, 4 * time.Second, 16 * time.Second,
}

// Histogram is a fixed-bucket duration histogram. Observe is atomic,
// allocation-free, and never reads the clock: callers pass durations they
// already measured, so the hot path carries no time.Now. The zero value is
// not usable; construct with NewHistogram.
type Histogram struct {
	bounds []time.Duration // upper bounds, ascending; +Inf implicit
	counts []Counter       // len(bounds)+1
	count  atomic.Uint64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (DefaultBuckets when none are given).
func NewHistogram(bounds ...time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]Counter, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	// Linear scan: the bucket count is small (≤ ~16) and the branch
	// pattern is friendlier to the hot path than a binary search.
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	// Totals before the bucket, mirrored by Snapshot reading buckets before
	// totals: every bucket increment a snapshot sees had its count
	// increment ordered before it, so bucket mass never exceeds Count.
	h.count.Add(1)
	h.sum.Add(int64(d))
	h.counts[i].Inc()
	for {
		cur := h.max.Load()
		if int64(d) <= cur {
			return
		}
		if h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Snapshot captures the histogram's current state. Buckets are read before
// the totals (the inverse of Observe's write order), so a concurrent
// snapshot can undercount a bucket relative to Count but never report more
// bucket mass than observations — reads stay monotone with respect to
// earlier snapshots.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]HistBucket, len(h.counts))}
	for i := range h.counts {
		s.Buckets[i].Count = h.counts[i].Load()
		if i < len(h.bounds) {
			s.Buckets[i].LeNs = int64(h.bounds[i])
		} else {
			s.Buckets[i].LeNs = -1 // +Inf
		}
	}
	s.Count = h.count.Load()
	s.SumNs = h.sum.Load()
	s.MaxNs = h.max.Load()
	return s
}
