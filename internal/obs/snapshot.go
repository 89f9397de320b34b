package obs

import "time"

// HistBucket is one cumulative-style histogram bucket in a snapshot: the
// count of observations that fell in this bucket (non-cumulative), with
// LeNs its inclusive upper bound in nanoseconds (-1 = +Inf).
type HistBucket struct {
	LeNs  int64  `json:"leNs"`
	Count uint64 `json:"count"`
}

// HistSnapshot is a point-in-time histogram capture, JSON-serializable as
// part of the unified Snapshot schema.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	SumNs   int64        `json:"sumNs"`
	MaxNs   int64        `json:"maxNs"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / int64(s.Count))
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by linear interpolation
// within the containing bucket, the standard fixed-bucket estimator. The
// top (+Inf) bucket is clamped to the recorded maximum.
func (s HistSnapshot) Quantile(p float64) time.Duration {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var cum float64
	var lower int64
	for _, b := range s.Buckets {
		if b.Count == 0 {
			if b.LeNs >= 0 {
				lower = b.LeNs
			}
			continue
		}
		next := cum + float64(b.Count)
		if rank <= next {
			upper := b.LeNs
			if upper < 0 || upper > s.MaxNs {
				upper = s.MaxNs // clamp +Inf (and slack) to the observed max
			}
			if upper < lower {
				return time.Duration(upper)
			}
			frac := (rank - cum) / float64(b.Count)
			return time.Duration(float64(lower) + frac*float64(upper-lower))
		}
		cum = next
		lower = b.LeNs
	}
	return time.Duration(s.MaxNs)
}

// Merge accumulates other into s. Bucket layouts must match (or s must be
// empty); mismatched layouts merge totals only, dropping other's buckets.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.SumNs += other.SumNs
	if other.MaxNs > s.MaxNs {
		s.MaxNs = other.MaxNs
	}
	if len(s.Buckets) == 0 {
		s.Buckets = append([]HistBucket(nil), other.Buckets...)
		return
	}
	if len(other.Buckets) != len(s.Buckets) {
		return
	}
	for i := range s.Buckets {
		if s.Buckets[i].LeNs != other.Buckets[i].LeNs {
			return
		}
	}
	for i := range s.Buckets {
		s.Buckets[i].Count += other.Buckets[i].Count
	}
}

// Snapshot is the unified telemetry schema every layer serializes: named
// monotonic counters, named gauges, and named histogram captures. It is
// the shape /debug/vars serves and cluster node reports embed, so one
// decoder reads any layer's telemetry.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Counter returns the named counter (zero when absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// SetCounter sets a named counter, allocating the map on first use.
func (s *Snapshot) SetCounter(name string, v uint64) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
	}
	s.Counters[name] = v
}

// SetGauge sets a named gauge, allocating the map on first use.
func (s *Snapshot) SetGauge(name string, v float64) {
	if s.Gauges == nil {
		s.Gauges = make(map[string]float64)
	}
	s.Gauges[name] = v
}

// SetHistogram sets a named histogram, allocating the map on first use.
func (s *Snapshot) SetHistogram(name string, h HistSnapshot) {
	if s.Histograms == nil {
		s.Histograms = make(map[string]HistSnapshot)
	}
	s.Histograms[name] = h
}

// Merge accumulates other into s: counters add, gauges keep the latest
// non-conflicting value (other wins), histograms merge bucket-wise.
func (s *Snapshot) Merge(other Snapshot) {
	for name, v := range other.Counters {
		s.SetCounter(name, s.Counter(name)+v)
	}
	for name, v := range other.Gauges {
		s.SetGauge(name, v)
	}
	for name, h := range other.Histograms {
		merged := HistSnapshot{}
		if s.Histograms != nil {
			merged = s.Histograms[name]
		}
		merged.Merge(h)
		s.SetHistogram(name, merged)
	}
}
