package round

import (
	"math/rand"

	"degradable/internal/rng"
	"degradable/internal/types"
)

// FilterChannel drops every message for which Keep returns false and
// delivers the rest unchanged.
type FilterChannel struct {
	Keep func(types.Message) bool
}

// Deliver implements Channel.
func (c FilterChannel) Deliver(m types.Message) (types.Message, bool) {
	if c.Keep != nil && !c.Keep(m) {
		return types.Message{}, false
	}
	return m, true
}

var _ Channel = FilterChannel{}

// RelaxedChannel models §6.1's relaxed message assumption: when more than m
// nodes are faulty, clock synchronization is no longer guaranteed, so a
// fault-free node may falsely declare a message from another fault-free node
// absent (a spurious timeout). The channel drops each message independently
// with probability Prob, using a deterministic seeded source.
//
// The paper proves the algorithm still achieves m/u-degradable agreement
// under this relaxation; experiment E8 exercises exactly this channel.
type RelaxedChannel struct {
	prob float64
	rng  *rand.Rand
	// exempt messages (e.g. those from already-Byzantine nodes, whose
	// behaviour the adversary scripts directly) are never dropped here.
	exempt types.NodeSet
}

// NewRelaxedChannel returns a channel that drops each non-exempt message
// with probability prob, deterministically per seed. prob is clamped to
// [0,1], and NaN reads as 0.
func NewRelaxedChannel(prob float64, seed int64, exempt types.NodeSet) *RelaxedChannel {
	if !(prob >= 0) { // NaN included
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	return &RelaxedChannel{prob: prob, rng: rng.New(seed), exempt: exempt}
}

// Deliver implements Channel.
func (c *RelaxedChannel) Deliver(m types.Message) (types.Message, bool) {
	if c.exempt.Contains(m.From) {
		return m, true
	}
	if c.rng.Float64() < c.prob {
		return types.Message{}, false
	}
	return m, true
}

var _ Channel = (*RelaxedChannel)(nil)

// ChainChannel composes channels left to right; a drop anywhere drops the
// message.
type ChainChannel []Channel

// Deliver implements Channel.
func (c ChainChannel) Deliver(m types.Message) (types.Message, bool) {
	for _, ch := range c {
		var ok bool
		m, ok = ch.Deliver(m)
		if !ok {
			return types.Message{}, false
		}
	}
	return m, true
}

var _ Channel = ChainChannel{}
