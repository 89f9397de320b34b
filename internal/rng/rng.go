// Package rng is the repository's one seeded random source. Source yields
// exactly math/rand's stream (rand.New(rand.NewSource(seed)) and
// rng.New(seed) draw the same numbers), but seeding is O(1):
// math/rand fills its 607-word feedback register up front, 1 841
// multiplicative-congruential steps per seed, while Source builds each word
// the first time the additive-lagged walk touches it. A run that draws a few
// dozen numbers touches a few dozen words.
//
// Because seeding is cheap, owners keep one generator and re-seed it per run
// (Seed), or borrow one from a shared pool (Get/Put), instead of allocating
// a 4.9 kB register per use.
package rng

import (
	"math/rand"
	"sync"
)

const (
	length   = 607       // register words (math/rand's rngLen)
	lag      = 273       // tap distance (math/rand's rngTap)
	modulus  = 1<<31 - 1 // the seeding LCG's prime modulus
	mult     = 48271     // the seeding LCG's multiplier
	zeroSeed = 89482311  // what math/rand seeds in place of 0
)

var (
	// pow[i] is mult^(21+3i) mod modulus: word i of a register seeded with
	// x₀ starts from LCG state pow[i]·x₀, since math/rand discards 20 steps
	// and then spends three per word.
	pow [length]uint64
	// cooked is math/rand's rngCooked table, the constant each seeded word
	// is XORed with. It is derived at init from a fresh math/rand source
	// (see deriveCooked) rather than copied.
	cooked [length]int64
)

func init() {
	a := uint64(1)
	for k := 0; k < 21; k++ {
		a = a * mult % modulus
	}
	const mult3 = mult * mult % modulus * mult % modulus
	for i := range pow {
		pow[i] = a
		a = a * mult3 % modulus
	}
	deriveCooked()
}

// deriveCooked recovers rngCooked from the first 607 outputs of
// rand.NewSource(1). Output k (1-based) adds the tap word 607−k into the
// feed word 334−k (mod 607) and returns the sum, so each seeded word is an
// output minus an earlier output or minus a word already recovered: words
// 334–606 come from outputs 335–607, then words 61–333 from outputs 1–273,
// then words 0–60 from outputs 274–334. XORing off the seed-1 LCG part
// leaves the cooked constant.
func deriveCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out [length + 1]uint64
	for k := 1; k <= length; k++ {
		out[k] = src.Uint64()
	}
	const feed0 = length - lag // the feed index before the first draw
	var v [length]uint64
	for k := feed0 + 1; k <= length; k++ {
		v[feed0+length-k] = out[k] - out[k-lag]
	}
	for k := 1; k <= lag; k++ {
		v[feed0-k] = out[k] - v[length-k]
	}
	for k := lag + 1; k <= feed0; k++ {
		v[feed0-k] = out[k] - out[k-lag]
	}
	for i := range cooked {
		cooked[i] = int64(v[i]) ^ seeded(i, 1)
	}
}

// seeded is word i of a register seeded with x0, before the cooked XOR:
// three consecutive LCG states packed at bit offsets 40, 20 and 0.
func seeded(i int, x0 uint64) int64 {
	x := pow[i] * x0 % modulus
	u := int64(x) << 40
	x = x * mult % modulus
	u ^= int64(x) << 20
	x = x * mult % modulus
	return u ^ int64(x)
}

// Source is a rand.Source64 whose stream equals math/rand's for every seed.
// The zero value is not seeded; call Seed first. A Source is not safe for
// concurrent use.
type Source struct {
	tap, feed int
	// draws counts draws since Seed up to length−lag, the draw by which
	// every register word has been built; words not yet built hold stale
	// values from an earlier seed.
	draws int
	x0    uint64 // the normalised seed, in [1, modulus)
	vec   [length]int64
}

var _ rand.Source64 = (*Source)(nil)

// Seed restarts the stream from seed, as math/rand's Seed does, in O(1):
// it normalises seed exactly as math/rand does and builds no word.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = length - lag
	s.draws = 0
	seed %= modulus
	if seed < 0 {
		seed += modulus
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += length
	}
	s.feed--
	if s.feed < 0 {
		s.feed += length
	}
	if s.draws < length-lag {
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// build makes the words this draw touches for the first time since Seed.
// The walk decides which those are: through draw 334 the feed word (333
// down to 0) is always new; the tap word (606 down to 273) is new through
// draw 273, and after that is a feed word this seed already wrote. So by
// draw 334 every word is built, and no later draw needs a check.
func (s *Source) build() {
	s.draws++
	s.vec[s.feed] = seeded(s.feed, s.x0) ^ cooked[s.feed]
	if s.draws <= lag {
		s.vec[s.tap] = seeded(s.tap, s.x0) ^ cooked[s.tap]
	}
}

// Int63 returns the next stream value with its top bit cleared.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// New returns a generator over a fresh Source seeded with seed: the drop-in
// for rand.New(rand.NewSource(seed)).
func New(seed int64) *rand.Rand {
	s := new(Source)
	s.Seed(seed)
	return rand.New(s)
}

var pool = sync.Pool{New: func() any { return rand.New(new(Source)) }}

// Get returns a pooled generator seeded with seed. It draws the same stream
// as New(seed); hand it back with Put when the run that owns it ends.
func Get(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Put returns a generator from Get to the pool. The caller must not use r
// afterwards.
func Put(r *rand.Rand) {
	pool.Put(r)
}
