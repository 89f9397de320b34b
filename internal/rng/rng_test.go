package rng

import (
	"math/rand"
	"testing"
)

// seeds covers math/rand's normalisation edges: zero (replaced by a
// constant), ±1, the modulus and its negation (both normalise to zero),
// values past 32 bits and the extremes of int64.
var seeds = []int64{0, 1, -1, 42, -9, zeroSeed, modulus, -modulus, modulus + 1,
	1 << 40, -7 << 50, 1<<63 - 1, -1 << 63}

func TestCookedMatchesEverySeed(t *testing.T) {
	// The table is derived from seed 1; a wrong entry would show on every
	// other seed at the word it corrupts.
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), New(seed)
		for i := 0; i < 3*length; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, g, w)
			}
		}
	}
}

// compare drives a math/rand generator and a Source-backed one through the
// same operation stream and fails at the first divergence. Each op byte
// selects a method and, for the sized ones, an argument.
func compare(t *testing.T, seed int64, ops []byte, want, got *rand.Rand) {
	t.Helper()
	for i, op := range ops {
		n := int(op>>3) + 1
		switch op & 7 {
		case 0:
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d op %d Int63: got %d, want %d", seed, i, g, w)
			}
		case 1:
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d op %d Uint64: got %d, want %d", seed, i, g, w)
			}
		case 2:
			if w, g := want.Intn(n), got.Intn(n); w != g {
				t.Fatalf("seed %d op %d Intn(%d): got %d, want %d", seed, i, n, g, w)
			}
		case 3:
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d op %d Float64: got %v, want %v", seed, i, g, w)
			}
		case 4:
			w, g := want.Perm(n), got.Perm(n)
			for k := range w {
				if w[k] != g[k] {
					t.Fatalf("seed %d op %d Perm(%d): got %v, want %v", seed, i, n, g, w)
				}
			}
		case 5:
			w, g := make([]int, n), make([]int, n)
			for k := range w {
				w[k], g[k] = k, k
			}
			want.Shuffle(n, func(a, b int) { w[a], w[b] = w[b], w[a] })
			got.Shuffle(n, func(a, b int) { g[a], g[b] = g[b], g[a] })
			for k := range w {
				if w[k] != g[k] {
					t.Fatalf("seed %d op %d Shuffle(%d): got %v, want %v", seed, i, n, g, w)
				}
			}
		case 6:
			// A burst of raw draws carries the stream past the 607-word
			// wrap within a few ops.
			for k := 0; k < 8*n; k++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("seed %d op %d burst draw %d: got %d, want %d", seed, i, k, g, w)
				}
			}
		case 7:
			// Mid-stream re-seed: both restart, the Source from whatever
			// words it had built.
			seed = seed*31 + int64(op)
			want.Seed(seed)
			got.Seed(seed)
		}
	}
}

func FuzzSourceVsMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(42), []byte{0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0x47, 0x12, 0xfe})
	f.Add(int64(-1<<63), []byte{0x3c, 0x0d, 0xfe, 0x07, 0x33})
	f.Add(int64(modulus), []byte{0xfe, 0xfe, 0xfe, 0xfe, 0xff, 0xfe, 0xfe, 0xfe, 0xfe, 0x0a})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		compare(t, seed, ops, rand.New(rand.NewSource(seed)), New(seed))
	})
}

func TestSourceVsMathRandPastTheWrap(t *testing.T) {
	// Every method, two re-seeds and several full register turns per seed.
	var ops []byte
	for r := 0; r < 40; r++ {
		ops = append(ops, 0x00, 0x09, 0x52, 0x0b, 0x3c, 0x2d, 0xfe, 0x18)
		if r%15 == 14 {
			ops = append(ops, 0x07)
		}
	}
	for _, seed := range seeds {
		compare(t, seed, ops, rand.New(rand.NewSource(seed)), New(seed))
	}
}

func TestPooledSourceReseedsFresh(t *testing.T) {
	// A pooled source that ran past the wrap has built every word, and every
	// one is stale for the next seed; after Put and Get it must draw the
	// fresh stream.
	r := Get(7)
	for i := 0; i < 701; i++ {
		r.Int63()
	}
	Put(r)
	for _, seed := range []int64{7, 8, 0} {
		got := Get(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2*length; i++ {
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("seed %d draw %d after reuse: got %d, want %d", seed, i, g, w)
			}
		}
		Put(got)
	}
}

func TestReseedAllocatesNothing(t *testing.T) {
	r := New(1)
	allocs := testing.AllocsPerRun(100, func() {
		r.Seed(99)
		for i := 0; i < 50; i++ {
			r.Float64()
		}
	})
	if allocs != 0 {
		t.Fatalf("re-seed plus 50 draws: %v allocs, want 0", allocs)
	}
}

var sink float64

// BenchmarkSeedAndDraw prices seeding plus 50 draws, the shape of one
// injector layer or RandomLie per scenario: math/rand's eager seeding, a
// fresh lazy Source, and a re-seeded one.
func BenchmarkSeedAndDraw(b *testing.B) {
	draw := func(r *rand.Rand) {
		for i := 0; i < 50; i++ {
			sink += r.Float64()
		}
	}
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draw(rand.New(rand.NewSource(int64(i))))
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			draw(New(int64(i)))
		}
	})
	b.Run("reseeded", func(b *testing.B) {
		b.ReportAllocs()
		r := New(0)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			draw(r)
		}
	})
}
